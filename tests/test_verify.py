import numpy as np
import pytest

from squarepeg import (
    cyclic_relabel,
    ellipse_basis,
    ellipse_dg_matrix,
    ellipse_square,
    ellipse_square_angles,
    equivalence_harness,
    f_map,
    g_directional_derivative,
    g_map,
    make_bent_rhombus,
    mu_pushforward_dg_matrix,
    mu_pushforward_nonplanar_dg_matrix,
    nonplanar_basis,
    nonplanar_dg_matrix,
)
from squarepeg.errors import NotOnSlq, PlanarConfiguration
from squarepeg.slq import G_TARGET, length_derivative
from squarepeg.verify import violated_quad

NONPLANAR_EXPECTED = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0], [0, 0, 0, 1]], dtype=float
)
NONPLANAR_PUSHED_EXPECTED = np.array(
    [[0, 1, 0, 0], [0, -1, 1, 0], [-1, 0, -1, 0], [0, 0, 0, -1]], dtype=float
)


def expected_ellipse_matrix(a, b):
    big, small = a / b, b / a
    return np.array(
        [
            [-big - small, big, 0, small],
            [big, -big - small, small, 0],
            [0, small, -big - small, big],
            [-big + small, -big + small, -big + small, -big + small],
        ]
    )


def expected_pushforward_matrix(a, b):
    big, small = a / b, b / a
    return np.array(
        [
            [big, -big - small, small, 0],
            [0, small, -big - small, big],
            [small, 0, big, -big - small],
            [big - small, big - small, big - small, big - small],
        ]
    )


def det_formula(a, b):
    return 8 * (a**4 - b**4) / (a**2 * b**2)


def test_ellipse_square_vertices_and_side():
    sq = ellipse_square(2, 1)
    s = 2 / np.sqrt(5)
    assert np.allclose(np.abs(sq.points), s, atol=1e-14)
    assert sq.dist(1, 2) == pytest.approx(4 / np.sqrt(5), abs=1e-12)
    assert np.abs(g_map(sq) - G_TARGET).max() < 1e-12
    assert np.abs(g_map(ellipse_square(3, 2)) - G_TARGET).max() < 1e-12


def test_ellipse_square_order_matches_angles():
    sq = ellipse_square(2, 1)
    angles = ellipse_square_angles(2, 1)
    ellipse_pts = np.stack([2 * np.cos(angles), np.sin(angles)], axis=1)
    assert np.allclose(sq.points, ellipse_pts, atol=1e-12)
    assert np.all(np.diff(angles) > 0)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (0, 1), (2, -1)])
def test_ellipse_square_rejects_bad_axes(a, b):
    with pytest.raises(ValueError):
        ellipse_square(a, b)


def test_ellipse_basis_moves_single_vertices():
    basis = ellipse_basis(2, 1)
    root5 = np.sqrt(5)
    assert np.allclose(basis[0].vectors[0], [-4 / root5, 1 / root5], atol=1e-12)
    for i, h in enumerate(basis):
        mask = np.ones(4, dtype=bool)
        mask[i] = False
        assert np.all(h.vectors[mask] == 0.0)
        assert np.linalg.norm(h.vectors[i]) > 0


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (3.0, 2.0), (10.0, 1.0)])
def test_ellipse_dg_matrix(a, b):
    mat = ellipse_dg_matrix(a, b)
    assert np.abs(mat - expected_ellipse_matrix(a, b)).max() < 1e-9
    det = np.linalg.det(mat)
    assert abs(det - det_formula(a, b)) <= 1e-9 * abs(det_formula(a, b))


def test_ellipse_dg_matrix_21_entries():
    mat = ellipse_dg_matrix(2, 1)
    assert mat[0, 0] == pytest.approx(-2.5, abs=1e-12)
    assert mat[3, 0] == pytest.approx(-2 + 0.5, abs=1e-12)
    assert np.linalg.det(mat) == pytest.approx(30.0, abs=1e-9)
    assert np.linalg.det(ellipse_dg_matrix(3, 2)) == pytest.approx(130 / 9, abs=1e-9)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (3.0, 2.0)])
def test_mu_pushforward_dg_matrix(a, b):
    mat = mu_pushforward_dg_matrix(a, b)
    assert np.abs(mat - expected_pushforward_matrix(a, b)).max() < 1e-9
    assert mat[0, 0] == pytest.approx(a / b, abs=1e-12)
    det = np.linalg.det(mat)
    assert abs(det - det_formula(a, b)) <= 1e-9 * abs(det_formula(a, b))


def test_mu_fourth_power_returns_original():
    square = ellipse_square(2, 1)
    basis = ellipse_basis(2, 1)
    for _ in range(4):
        square = cyclic_relabel(square)
        basis = [h.cyclic_relabel() for h in basis]
    mat = np.stack([g_directional_derivative(square, h) for h in basis], axis=1)
    assert np.abs(mat - ellipse_dg_matrix(2, 1)).max() < 1e-12


@pytest.mark.parametrize("h", [0.25, 0.5, 1.0])
def test_nonplanar_dg_matrix(h):
    mat = nonplanar_dg_matrix(make_bent_rhombus(h))
    assert np.abs(mat - NONPLANAR_EXPECTED).max() < 1e-8
    assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("h", [0.25, 0.5, 1.0])
def test_mu_pushforward_nonplanar_dg_matrix(h):
    mat = mu_pushforward_nonplanar_dg_matrix(make_bent_rhombus(h))
    assert np.abs(mat - NONPLANAR_PUSHED_EXPECTED).max() < 1e-8
    assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-8)


def test_nonplanar_refuses_planar_and_non_square_like():
    with pytest.raises(PlanarConfiguration):
        nonplanar_dg_matrix(make_bent_rhombus(0.0))
    from squarepeg import Config4

    with pytest.raises(NotOnSlq):
        nonplanar_dg_matrix(Config4([[0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0.3]]))
    with pytest.raises(NotOnSlq):  # a nan point is off the locus
        nonplanar_dg_matrix(Config4([[1, 0, 0], [0, 1, np.nan], [-1, 0, 0], [0, -1, 0.5]]))


def test_nonplanar_basis_scaling_conditions():
    c = make_bent_rhombus(0.7)
    basis = nonplanar_basis(c)
    ell = c.dist(1, 2)
    m = c.dist(1, 3)
    stated = [((1, 4), -ell / 2), ((2, 3), ell / 2), ((3, 4), ell / 2), ((1, 3), ell**2 / (2 * m))]
    pairs = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)]
    for h, ((ti, tj), value) in zip(basis, stated):
        for (i, j) in pairs:
            expected = value if {i, j} == {ti, tj} else 0.0
            assert length_derivative(c, h, i, j) == pytest.approx(expected, abs=1e-10)
        # finite-difference check of the pinned derivative
        step = 1e-7
        moved = c.points + step * h.vectors
        before = np.linalg.norm(c.points[ti - 1] - c.points[tj - 1])
        after = np.linalg.norm(moved[ti - 1] - moved[tj - 1])
        assert (after - before) / step == pytest.approx(value, abs=1e-6)


def test_random_axis_sweep():
    rng = np.random.default_rng(6)
    for _ in range(50):
        b = rng.uniform(0.3, 3.0)
        a = b * rng.uniform(1.0 + 1e-3, 10.0)
        sq = ellipse_square(a, b)
        assert np.linalg.norm(g_map(sq) - G_TARGET) < 1e-12
        assert np.linalg.norm(f_map(sq)) < 1e-12
        det = np.linalg.det(ellipse_dg_matrix(a, b))
        assert det > 0
        assert abs(det - det_formula(a, b)) <= 1e-9 * abs(det_formula(a, b))


def test_equivalence_harness_passes():
    report = equivalence_harness(300, seed=1)
    assert report.passed
    assert report.max_g_squarelike < 1e-10
    assert report.max_f_squarelike < 1e-10
    assert report.min_g_violated > 1e-4
    assert report.min_f_violated > 1e-4


def test_equivalence_harness_one_percent_diagonal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        bad = violated_quad(rng, "diagonal", delta=0.01, dim=2)
        assert np.linalg.norm(g_map(bad) - G_TARGET) > 1e-4
        assert np.linalg.norm(f_map(bad)) > 1e-4


def test_equivalence_harness_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        equivalence_harness(0, seed=1)


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), "2"])
def test_equivalence_harness_rejects_non_integral_trials(bad):
    with pytest.raises(ValueError, match="trials must be an integer"):
        equivalence_harness(bad, seed=1)
    assert equivalence_harness(np.int64(2), seed=1) == equivalence_harness(2, seed=1)


@pytest.mark.parametrize(
    "seed, match",
    [(-1, "seed must be >= 0"), (1.5, "seed must be an integer"), (None, "seed must be an integer")],
)
def test_equivalence_harness_rejects_bad_seed_by_name(seed, match):
    with pytest.raises(ValueError, match=match):
        equivalence_harness(2, seed=seed)
    assert equivalence_harness(2, seed=np.int64(7)) == equivalence_harness(2, seed=7)
