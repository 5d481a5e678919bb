import numpy as np
import pytest

from squarepeg import (
    Config4,
    Variation4,
    cyclic_relabel,
    f_hat,
    f_map,
    g_directional_derivative,
    g_map,
    make_bent_rhombus,
    measurements,
)
from squarepeg.errors import CoincidentPoints, DegenerateConfiguration, NotOnSlq
from squarepeg.slq import G_TARGET
from squarepeg.verify import (
    ellipse_basis,
    ellipse_square,
    random_bent_rhombus,
    random_rotation,
    random_square,
    rigid_move,
    violated_quad,
)

UNIT_SQUARE = Config4([[0, 0], [1, 0], [1, 1], [0, 1]])
RECTANGLE = Config4([[0, 0], [2, 0], [2, 1], [0, 1]])


def test_g_map_unit_square():
    assert np.allclose(g_map(UNIT_SQUARE), [1, 1, 1, 0], atol=1e-14)


def test_g_map_rectangle():
    assert np.allclose(g_map(RECTANGLE), [4, 0.25, 4, 0], atol=1e-14)


def test_g_map_bent_rhombus_against_direct_distances():
    c = make_bent_rhombus(0.5)
    # independent check that the generator really is square-like
    pts = c.points
    sides = [np.linalg.norm(pts[i] - pts[(i + 1) % 4]) for i in range(4)]
    diagonals = [np.linalg.norm(pts[0] - pts[2]), np.linalg.norm(pts[1] - pts[3])]
    assert np.allclose(sides, sides[0]) and np.allclose(diagonals, diagonals[0])
    assert np.allclose(g_map(c), [1, 1, 1, 0], atol=1e-14)


def test_g_map_degenerate_raises():
    c = Config4([[0, 0], [0, 0], [1, 1], [0, 1]])
    with pytest.raises(DegenerateConfiguration):
        g_map(c)


def test_f_map_zero_on_squares_and_bent_rhombi():
    assert np.allclose(f_map(UNIT_SQUARE), np.zeros(4), atol=1e-14)
    assert np.allclose(f_map(make_bent_rhombus(0.5)), np.zeros(4), atol=1e-14)


def test_f_map_rectangle_diagonals_not_perpendicular():
    val = f_map(RECTANGLE)
    # diagonal directions (-2,-1)/sqrt5 and (2,-1)/sqrt5 dot to -3/5
    assert val[2] == pytest.approx(-3 / 5)
    assert abs(val[2]) > 0.1


def test_g_directional_derivative_unit_square_hand_value():
    # moving p1 along +x (toward p2) shrinks |p1-p2|: row 1 = 2(D12 - D14) = -2
    h_toward = Variation4.single(1, [1.0, 0.0], dim=2)
    rows = g_directional_derivative(UNIT_SQUARE, h_toward)
    assert rows[0] == pytest.approx(-2.0, abs=1e-12)
    # moving p1 away from p2 gives the opposite sign
    h_away = Variation4.single(1, [-1.0, 0.0], dim=2)
    assert g_directional_derivative(UNIT_SQUARE, h_away)[0] == pytest.approx(2.0, abs=1e-12)
    # finite-difference cross-check of the full row vectors
    step = 1e-8
    for h in (h_toward, h_away):
        moved = Config4(UNIT_SQUARE.points + step * h.vectors)
        fd = (g_map(moved) - g_map(UNIT_SQUARE)) / step
        assert np.abs(g_directional_derivative(UNIT_SQUARE, h) - fd).max() < 1e-6


def test_g_directional_derivative_zero_variation():
    h = Variation4(np.zeros((4, 3)))
    assert np.allclose(g_directional_derivative(make_bent_rhombus(1.0), h), np.zeros(4))


def test_g_directional_derivative_ellipse_first_entry():
    a, b = 2.0, 1.0
    square = ellipse_square(a, b)
    h1 = ellipse_basis(a, b)[0]
    rows = g_directional_derivative(square, h1)
    assert rows[0] == pytest.approx(-a / b - b / a, abs=1e-12)


def test_g_directional_derivative_requires_square_like():
    h = Variation4.single(1, [1.0, 0.0], dim=2)
    with pytest.raises(NotOnSlq):
        g_directional_derivative(RECTANGLE, h)
    # nan fails every comparison, so a "deviation > tol" test would let it through
    nan_square = Config4([[0, 0], [1, 0], [1, np.nan], [0, 1]])
    with pytest.raises(NotOnSlq, match="by nan"):
        g_directional_derivative(nan_square, h)


def test_g_directional_derivative_matches_fd_on_random_square_likes():
    rng = np.random.default_rng(9)
    step = 1e-7
    worst = 0.0
    for trial in range(200):
        if trial % 2 == 0:
            c = random_square(rng, dim=3)
        else:
            c = random_bent_rhombus(rng)
        vecs = rng.normal(size=(4, 3))
        vecs /= max(1.0, np.abs(vecs).max())
        h = Variation4(vecs)
        analytic = g_directional_derivative(c, h)
        fd = (g_map(Config4(c.points + step * h.vectors)) - g_map(c)) / step
        worst = max(worst, float(np.abs(analytic - fd).max()))
    assert worst < 1e-5


def test_f_hat_orthogonal_triple():
    out = f_hat([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert np.allclose(out, [0, 0, 0], atol=1e-14)


def test_f_hat_direct_dot_products():
    # pi14 = (q1-q2)/|q1-q2| = (-1,0,0); first entry 2 pi14 . u13 = +2
    out = f_hat([0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0])
    assert np.allclose(out, [2.0, 0.0, 0.0], atol=1e-14)


def test_f_hat_third_component_is_diagonal_dot():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q1, q2 = rng.normal(size=(2, 3))
        u13 = rng.normal(size=3)
        u13 /= np.linalg.norm(u13)
        u24 = rng.normal(size=3)
        u24 /= np.linalg.norm(u24)
        out = f_hat(q1, q2, u13, u24)
        assert out[2] == pytest.approx(float(np.dot(u13, u24)), abs=1e-12)


def test_f_hat_errors():
    with pytest.raises(CoincidentPoints):
        f_hat([0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError):
        f_hat([0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0])


def test_make_bent_rhombus_measurements():
    flat = make_bent_rhombus(0.0)
    m0 = measurements(flat)
    assert np.allclose(m0.sides, np.sqrt(2))
    assert m0.planarity == pytest.approx(0.0, abs=1e-12)

    tall = make_bent_rhombus(1.0)
    m1 = measurements(tall)
    assert np.allclose(m1.sides, np.sqrt(3))
    assert np.allclose(m1.diagonals, 2.0)

    assert measurements(make_bent_rhombus(0.5)).planarity > 0.01
    with pytest.raises(ValueError):
        make_bent_rhombus(-0.1)


def test_measurements_unit_square():
    m = measurements(UNIT_SQUARE)
    assert np.allclose(m.sides, 1.0)
    assert np.allclose(m.diagonals, np.sqrt(2))
    assert m.side_mean == pytest.approx(1.0)
    assert m.diagonal_mean == pytest.approx(np.sqrt(2))
    assert m.planarity == pytest.approx(0.0, abs=1e-14)


def test_measurements_reports_degenerate_side_without_error():
    c = Config4([[0, 0], [0, 0], [1, 1], [0, 1]])
    m = measurements(c)
    assert m.sides[0] == 0.0


def test_rigid_motion_and_scale_invariance():
    rng = np.random.default_rng(17)
    worst_g = 0.0
    worst_f = 0.0
    for trial in range(1000):
        dim = (2, 3, 5)[trial % 3]
        pts = rng.normal(size=(4, dim)) if dim > 2 else rng.normal(size=(4, 2))
        c = Config4(pts)
        try:
            g0, f0 = g_map(c), f_map(c)
        except DegenerateConfiguration:
            continue
        rot = random_rotation(dim, rng)
        scale = rng.uniform(0.1, 10.0)
        shift = rng.uniform(-5, 5, size=dim)
        moved = Config4(scale * pts @ rot.T + shift)
        worst_g = max(worst_g, float(np.abs(g_map(moved) - g0).max()))
        worst_f = max(worst_f, float(np.abs(f_map(moved) - f0).max()))
    assert worst_g < 1e-10
    assert worst_f < 1e-10


def test_zero_set_equivalence_families():
    rng = np.random.default_rng(23)
    for trial in range(200):
        if trial % 3 == 0:
            c = random_square(rng, dim=2)
        elif trial % 3 == 1:
            c = random_square(rng, dim=3)
        else:
            c = random_bent_rhombus(rng)
        assert np.linalg.norm(g_map(c) - G_TARGET) < 1e-10
        assert np.linalg.norm(f_map(c)) < 1e-10
    for trial in range(200):
        kind = "side" if trial % 2 == 0 else "diagonal"
        bad = violated_quad(rng, kind, delta=0.01, dim=2 if trial % 4 < 2 else 3)
        assert np.linalg.norm(g_map(bad) - G_TARGET) > 1e-4
        assert np.linalg.norm(f_map(bad)) > 1e-4


def test_cyclic_relabel_compatibility():
    rng = np.random.default_rng(31)
    for _ in range(50):
        c = random_bent_rhombus(rng)
        relabeled = cyclic_relabel(c)
        assert np.linalg.norm(g_map(relabeled) - G_TARGET) < 1e-10
        assert np.linalg.norm(f_map(relabeled)) < 1e-10


def test_rigid_move_pads_dimension():
    rng = np.random.default_rng(5)
    c = rigid_move(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), rng, dim=5)
    assert c.dim == 5
    assert np.linalg.norm(g_map(c) - G_TARGET) < 1e-12
