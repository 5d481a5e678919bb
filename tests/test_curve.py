import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from squarepeg import (
    Curve,
    curve_from_json_dict,
    make_ellipse,
    perturb,
    regularity_and_embedding_check,
)
from squarepeg.curve import (
    CHECK_SAMPLES,
    MAX_HARMONICS,
    MAX_SCALE,
    _ACCUMULATE_MAX_ANGLES,
    _accumulated,
    _close_pairs,
    _harmonic_table,
    _point_set_diameter,
    _recurrence,
    _sample_table,
    _squared_norms,
)
from squarepeg.errors import RegularityLost

from conftest import random_smooth_curve, unresolvable_curves

TWO_PI = 2 * np.pi


def test_ellipse_eval_axis_points(ellipse21):
    assert np.allclose(ellipse21.eval(0.0), [2, 0], atol=1e-14)
    assert np.allclose(ellipse21.eval(np.pi / 2), [0, 1], atol=1e-14)
    assert np.allclose(make_ellipse(3, 2).eval(np.pi), [-3, 0], atol=1e-14)


def test_ellipse_eval_square_vertex_angle(ellipse21):
    # first-quadrant angle with cos^2 = b^2 / (a^2 + b^2)
    a, b = 2.0, 1.0
    theta = np.arccos(b / np.hypot(a, b))
    expected = a * b / np.hypot(a, b)
    assert np.allclose(ellipse21.eval(theta), [expected, expected], atol=1e-14)


def test_deriv_at_zero(ellipse21):
    assert np.allclose(ellipse21.deriv(0.0), [0, 1], atol=1e-14)


def test_deriv_at_square_vertex_matches_tangent_pattern(ellipse21):
    a, b = 2.0, 1.0
    theta = np.arccos(b / np.hypot(a, b))
    v = ellipse21.deriv(theta)
    expected = np.array([-(a**2), b**2]) / np.hypot(a, b)
    # parallel and in fact equal for this parametrization
    cross = v[0] * expected[1] - v[1] * expected[0]
    assert abs(cross) < 1e-12
    assert np.allclose(v, expected, atol=1e-12)


@pytest.mark.parametrize("harmonics", range(1, 11))
def test_harmonic_table_builds_agree_bit_for_bit(harmonics):
    rng = np.random.default_rng(harmonics)
    for n in (0, 1, _ACCUMULATE_MAX_ANGLES, 2 * _ACCUMULATE_MAX_ANGLES):
        theta = rng.uniform(-10.0, 10.0, size=n)
        expected = [t.tobytes() for t in _recurrence(theta, harmonics)]
        # the table as eval and deriv get it, whichever build its size takes
        assert [t.T.tobytes() for t in _harmonic_table(theta, harmonics)] == expected, n
        if harmonics > 2:  # H <= 2 always takes the recurrence
            assert [t.tobytes() for t in _accumulated(theta, harmonics)] == expected, n


def test_sample_tables_are_read_only_and_match_eval_and_deriv():
    curve = random_smooth_curve(np.random.default_rng(11), dim=3, harmonics=6)
    for n in (CHECK_SAMPLES, CHECK_SAMPLES // 8, 1024):
        c, s = _sample_table(n, curve.harmonics)
        assert c.shape == s.shape == (n, curve.harmonics)
        for table in (c, s):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        theta = TWO_PI * np.arange(n) / n
        assert curve._points(c, s).tobytes() == curve.eval(theta).tobytes()
        assert curve._tangents(c, s).tobytes() == curve.deriv(theta).tobytes()


def test_deriv_matches_central_differences():
    rng = np.random.default_rng(3)
    curve = random_smooth_curve(rng, dim=3, harmonics=4)
    thetas = rng.uniform(0, TWO_PI, size=1000)
    h = 1e-6
    fd = (curve.eval(thetas + h) - curve.eval(thetas - h)) / (2 * h)
    an = curve.deriv(thetas)
    scale = np.linalg.norm(an, axis=1)
    rel = np.linalg.norm(an - fd, axis=1) / scale
    assert rel.max() < 1e-6


def test_eval_deriv_match_direct_trig_at_8_harmonics():
    # eval/deriv build harmonics by angle addition; compare with one cos and
    # one sin per harmonic, to the rounding the recurrence may add
    rng = np.random.default_rng(11)
    curve = random_smooth_curve(rng, dim=3, harmonics=8)
    thetas = np.concatenate([rng.uniform(0, TWO_PI, size=2000), [0.0, np.pi, TWO_PI]])
    h = np.arange(1, 9)
    ang = np.multiply.outer(thetas, h)
    cos, sin = np.cos(ang), np.sin(ang)
    points = curve.a0 + cos @ curve.cos_coeffs.T + sin @ curve.sin_coeffs.T
    tangents = (cos * h) @ curve.sin_coeffs.T - (sin * h) @ curve.cos_coeffs.T
    coeffs = np.concatenate([curve.cos_coeffs, curve.sin_coeffs], axis=1)
    scale = np.abs(coeffs).max()
    assert np.abs(curve.eval(thetas) - points).max() < 1e-13 * scale
    deriv_scale = np.abs(coeffs * np.concatenate([h, h])).max()
    assert np.abs(curve.deriv(thetas) - tangents).max() < 1e-13 * deriv_scale
    assert np.abs(curve.eval(thetas[0]) - points[0]).max() < 1e-13 * scale
    grid = curve.eval(thetas[:2000].reshape(40, 50))
    assert np.abs(grid - points[:2000].reshape(40, 50, 3)).max() < 1e-13 * scale


def test_periodicity():
    rng = np.random.default_rng(11)
    curve = random_smooth_curve(rng, dim=2, harmonics=5)
    thetas = rng.uniform(0, TWO_PI, size=100)
    diff = np.abs(curve.eval(thetas) - curve.eval(thetas + TWO_PI))
    assert diff.max() < 1e-12


def test_eval_shapes(ellipse21):
    assert ellipse21.eval(0.5).shape == (2,)
    assert ellipse21.eval(np.zeros(7)).shape == (7, 2)
    assert ellipse21.deriv(np.zeros(7)).shape == (7, 2)


def test_make_ellipse_coefficients(ellipse21):
    assert np.array_equal(ellipse21.cos_coeffs, [[2.0], [0.0]])
    assert np.array_equal(ellipse21.sin_coeffs, [[0.0], [1.0]])
    assert np.array_equal(ellipse21.a0, [0.0, 0.0])


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-2, 1), (1, -1)])
def test_make_ellipse_rejects_nonpositive(a, b):
    with pytest.raises(ValueError):
        make_ellipse(a, b)


@pytest.mark.parametrize("field", ["a0", "cos", "sin"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_curve_rejects_non_finite_coefficients(field, bad):
    a0 = np.zeros(2)
    cos_c = np.array([[2.0], [0.0]])
    sin_c = np.array([[0.0], [1.0]])
    {"a0": a0, "cos": cos_c, "sin": sin_c}[field].flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        Curve(a0, cos_c, sin_c)


@pytest.mark.parametrize("a,b", [(np.nan, 1), (1, np.nan), (np.inf, 1), (1, np.inf)])
def test_make_ellipse_rejects_non_finite(a, b):
    with pytest.raises(ValueError):
        make_ellipse(a, b)


@pytest.mark.parametrize("field", ["a0", "cos", "sin"])
def test_curve_rejects_scale_above_the_bound(field):
    # squared pair distances overflow in the kernels from about 1e154
    a0 = np.zeros(2)
    cos_c = np.array([[2.0], [0.0]])
    sin_c = np.array([[0.0], [1.0]])
    {"a0": a0, "cos": cos_c, "sin": sin_c}[field].flat[0] = 2 * MAX_SCALE
    with pytest.raises(ValueError, match=r"curve scale 2e\+150 exceeds 1e\+150"):
        Curve(a0, cos_c, sin_c)
    for a in (2e154, 1e308):
        with pytest.raises(ValueError, match="exceeds"):
            make_ellipse(a, a / 2)
    # the bound is on |a0| + sum |cos| + sum |sin| per coordinate
    assert make_ellipse(MAX_SCALE, MAX_SCALE / 2).diameter == pytest.approx(2 * MAX_SCALE)
    # a tiny scale is a regularity failure, not a scale error
    with pytest.raises(RegularityLost):
        make_ellipse(1e-300, 1e-300)


@pytest.mark.parametrize("name", sorted(unresolvable_curves()))
def test_curve_rejects_what_float64_cannot_resolve(name):
    # a diameter below 1e-150, or a scale above 1e3 diameters: each was once
    # solved to a confident even count
    match = r"below 1e-150|exceeds 1000 x its diameter"
    with pytest.raises(ValueError, match=match):
        curve_from_json_dict(unresolvable_curves()[name])


def test_curve_at_the_harmonic_bound_constructs():
    ellipse = make_ellipse(2, 1)
    cos_c, sin_c = (np.pad(c, ((0, 0), (0, MAX_HARMONICS - 1))) for c in
                    (ellipse.cos_coeffs, ellipse.sin_coeffs))  # fmt: skip
    curve = Curve(ellipse.a0, cos_c, sin_c)
    assert curve.harmonics == MAX_HARMONICS
    assert curve.diameter == pytest.approx(ellipse.diameter, rel=1e-12)
    with pytest.raises(ValueError, match=f"{MAX_HARMONICS + 1} harmonics exceed"):
        Curve(ellipse.a0, np.pad(cos_c, ((0, 0), (0, 1))), np.pad(sin_c, ((0, 0), (0, 1))))


def test_curve_scale_per_diameter_bound():
    with pytest.raises(ValueError, match=r"curve diameter 4e-160 is below 1e-150"):
        make_ellipse(2e-160, 1e-160)
    assert make_ellipse(2e-150, 1e-150).diameter == pytest.approx(4e-150)
    # a 2:1 ellipse of diameter 4 stays accepted up to a shift of 4e3 - 2,
    # where |a0| + sum |cos| + sum |sin| reaches 1e3 diameters
    ellipse = make_ellipse(2, 1)
    Curve(ellipse.a0 + 3.9e3, ellipse.cos_coeffs, ellipse.sin_coeffs)
    with pytest.raises(ValueError, match=r"curve scale 4\.1e\+03 exceeds 1000 x its diameter 4"):
        Curve(ellipse.a0 + 4.1e3, ellipse.cos_coeffs, ellipse.sin_coeffs)


def test_unit_circle_is_legal_to_build():
    curve = make_ellipse(1, 1)
    assert curve.diameter == pytest.approx(2.0, abs=1e-6)


def test_perturb_amplitude_zero_is_identity(ellipse21):
    same = perturb(ellipse21, 0.0, 5, seed=123)
    assert np.array_equal(same.cos_coeffs, ellipse21.cos_coeffs)
    assert np.array_equal(same.sin_coeffs, ellipse21.sin_coeffs)


def test_perturb_same_seed_bitwise_identical(ellipse21):
    one = perturb(ellipse21, 0.05, 5, seed=42)
    two = perturb(ellipse21, 0.05, 5, seed=42)
    assert np.array_equal(one.cos_coeffs, two.cos_coeffs)
    assert np.array_equal(one.sin_coeffs, two.sin_coeffs)
    three = perturb(ellipse21, 0.05, 5, seed=43)
    assert not np.array_equal(one.cos_coeffs, three.cos_coeffs)


@pytest.mark.parametrize(
    "amplitude,max_harmonic,match",
    [
        (0.1, 2.5, "max_harmonic must be an integer"),
        (0.1, 2.0, "max_harmonic must be an integer"),
        (0.1, np.float64(2.0), "max_harmonic must be an integer"),
        (0.1, -1, "max_harmonic must be >= 0"),
        (np.nan, 2, "amplitude must be finite"),
        (np.inf, 2, "amplitude must be finite"),
        (-np.inf, 2, "amplitude must be finite"),
        (-0.1, 2, "amplitude must be finite and >= 0"),
        (0.1, 257, "257 harmonics exceed 256"),
    ],
)
def test_perturb_rejects_bad_amplitude_and_harmonic(ellipse21, amplitude, max_harmonic, match):
    with pytest.raises(ValueError, match=match):
        perturb(ellipse21, amplitude, max_harmonic, seed=1)
    same = perturb(ellipse21, 0.1, np.int64(2), seed=1)
    assert np.array_equal(same.cos_coeffs, perturb(ellipse21, 0.1, 2, seed=1).cos_coeffs)


@pytest.mark.parametrize(
    "seed, match",
    [(-1, "seed must be >= 0"), (1.5, "seed must be an integer"), (None, "seed must be an integer")],
)
@pytest.mark.parametrize("amplitude", [0.0, 0.1])
def test_perturb_rejects_bad_seed_by_name(ellipse21, amplitude, seed, match):
    # checked before the early return of a zero amplitude, too
    with pytest.raises(ValueError, match=match):
        perturb(ellipse21, amplitude, 3, seed=seed)
    same = perturb(ellipse21, amplitude, 3, seed=np.int64(7))
    assert np.array_equal(same.sin_coeffs, perturb(ellipse21, amplitude, 3, seed=7).sin_coeffs)


def test_perturb_seed7_stays_regular(ellipse21):
    curve = perturb(ellipse21, 0.05, 5, seed=7)
    report = regularity_and_embedding_check(curve, samples=4096)
    assert report["min_speed"] > 0.5


def test_perturb_sup_norm_bound(ellipse21):
    amplitude, max_h = 0.03, 5
    grid = TWO_PI * np.arange(4096) / 4096
    base = ellipse21.eval(grid)
    for seed in (1, 2, 3):
        moved = perturb(ellipse21, amplitude, max_h, seed=seed)
        change = np.linalg.norm(moved.eval(grid) - base, axis=1).max()
        assert change <= amplitude * max_h * 2 * ellipse21.dim


def test_regularity_report_ellipse(ellipse21):
    report = regularity_and_embedding_check(ellipse21)
    # speed sqrt(4 sin^2 + cos^2) attains 1 exactly at theta = 0
    assert report["min_speed"] == pytest.approx(1.0, abs=1e-12)
    # embedded: nearest non-excluded sample pairs sit ~5 grid steps apart
    assert report["min_self_distance"] > 5 * (2 * np.pi / 4096) * 0.9


def test_figure_eight_nearly_self_intersects():
    curve = Curve([0, 0], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    report = regularity_and_embedding_check(curve, samples=4096)
    assert report["min_self_distance"] < 0.01


def min_self_distance_reference(curve, samples, exclusion=4):
    """Brute-force minimum over sample pairs more than ``exclusion`` steps apart."""
    pts = curve.eval(TWO_PI * np.arange(samples) / samples)
    best = np.inf
    for i in range(samples):
        gap = np.abs(np.arange(samples) - i)
        gap = np.minimum(gap, samples - gap)
        dist = np.linalg.norm(pts - pts[i], axis=1)
        best = min(best, float(dist[gap > exclusion].min()))
    return best


def chord_bound(curve, samples, exclusion=4):
    """The smallest chord between samples ``exclusion + 1`` steps apart."""
    pts = curve.eval(TWO_PI * np.arange(samples) / samples)
    return float(np.linalg.norm(pts - np.roll(pts, exclusion + 1, axis=0), axis=1).min())


@pytest.mark.parametrize("samples", [16, 100, 1024])
def test_embedding_check_matches_brute_force(samples):
    rng = np.random.default_rng(samples)
    figure_eight = Curve([0, 0], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    # wiggly8 crosses itself, so a far pair is closer than the 5-step chord;
    # on the ellipse the 5-step chord is the minimum
    wiggly8 = perturb(make_ellipse(2, 1), 0.12, 8, seed=3)
    ellipse = make_ellipse(2, 1)
    curves = [figure_eight, wiggly8, ellipse] + [
        random_smooth_curve(rng, dim=dim, harmonics=5) for dim in (2, 2, 3)
    ]
    for curve in curves:
        got = regularity_and_embedding_check(curve, samples=samples)["min_self_distance"]
        assert got == pytest.approx(min_self_distance_reference(curve, samples), rel=1e-12)
    if samples == 1024:
        assert min_self_distance_reference(wiggly8, samples) < chord_bound(wiggly8, samples)
        assert min_self_distance_reference(ellipse, samples) == chord_bound(ellipse, samples)


def diameter_reference(pts):
    """Brute force: the largest norm in the full (n, n, k) difference array."""
    return float(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2).max())


def full_gram_diameter(pts):
    """The farthest pair's distance, located on the full (n, n) Gram matrix."""
    centred = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    dist2 = (-2.0 * centred) @ centred.T
    dist2 += sq[:, None]
    dist2 += sq
    i, j = divmod(int(np.argmax(dist2)), len(pts))
    return float(np.linalg.norm(pts[i] - pts[j]))


@pytest.mark.parametrize("dim", [2, 3])
def test_diameter_matches_brute_force(dim):
    rng = np.random.default_rng(40 + dim)
    theta = TWO_PI * np.arange(CHECK_SAMPLES) / CHECK_SAMPLES
    curves = [make_ellipse(1, 1), make_ellipse(2, 1)] if dim == 2 else []
    curves += [
        random_smooth_curve(rng, dim=dim, harmonics=harmonics)
        for harmonics in (1, 2, 3, 5, 8)
        for _ in range(4)
    ]
    for curve in curves:
        pts = curve.eval(theta[::8])
        assert curve.diameter == pytest.approx(diameter_reference(pts), rel=1e-12, abs=0)
        # the pruned rows hold the full Gram matrix's pair, so the bits agree;
        # the circle's antipodal pairs tie, and its rows are not pruned
        assert curve.diameter == full_gram_diameter(pts)
    for _ in range(5):
        # clouds far from the origin: the Gram form works on centred points
        pts = rng.normal(size=(300, dim)) * rng.uniform(0.01, 1, size=dim) + 1e8
        assert _point_set_diameter(pts) == pytest.approx(
            diameter_reference(pts), rel=1e-12, abs=0
        )
        assert _point_set_diameter(pts) == full_gram_diameter(pts)


def embedding_check_reference(curve, samples):
    """The regularity and embedding check with ``np.linalg.norm`` over each row."""
    c, s = _sample_table(samples, curve.harmonics)
    speeds = np.linalg.norm(curve._tangents(c, s), axis=1)
    pts = curve._points(c, s)
    bound = np.linalg.norm(pts - np.roll(pts, -5, axis=0), axis=1).min()
    i, j = _close_pairs(pts, bound * (1 + 1e-12), skip=4)
    dist = np.linalg.norm(pts[i] - pts[j], axis=1)
    return {"min_speed": float(speeds.min()), "min_self_distance": float(dist.min(initial=bound))}


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_norms_and_diameter_match_row_norms_and_full_gram_bitwise(dim):
    # the minima take the root of the smallest coordinate-order sum, the
    # diameter forms only the kept block: the bits must not move
    rng = np.random.default_rng(70 + dim)
    curves = [
        random_smooth_curve(rng, dim=dim, harmonics=harmonics)
        for harmonics in (1, 2, 3, 5, 8)
        for _ in range(3)
    ]
    if dim == 2:
        ellipse = make_ellipse(2, 1)
        curves += [make_ellipse(1, 1), ellipse, perturb(ellipse, 0.12, 8, seed=3)]
        curves.append(Curve([0, 0], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]))
    theta = TWO_PI * np.arange(CHECK_SAMPLES // 8) / (CHECK_SAMPLES // 8)
    for curve in curves:
        for samples in (100, 1024, CHECK_SAMPLES):
            got = regularity_and_embedding_check(curve, samples=samples)
            assert got == embedding_check_reference(curve, samples)
        assert curve.diameter == full_gram_diameter(curve.eval(theta))


@pytest.mark.parametrize("k", range(1, 8))
def test_squared_norms_match_the_axis_reduction(k):
    # numpy sums fewer than 8 terms in order; from k = 8 it unrolls by 8
    rng = np.random.default_rng(k)
    rows = rng.normal(size=(20_000, k)) * 10.0 ** rng.uniform(-5, 5, size=(20_000, 1))
    got = _squared_norms(rows)
    assert np.array_equal(got, (rows * rows).sum(axis=1))
    assert np.array_equal(np.sqrt(got), np.linalg.norm(rows, axis=1))


def query_pairs_reference(pts, radius):
    return {tuple(p) for p in cKDTree(pts).query_pairs(radius, output_type="ndarray").tolist()}


def close_pairs_set(pts, radius):
    i, j = _close_pairs(pts, radius)
    assert np.all(i < j)
    pairs = set(zip(i.tolist(), j.tolist()))
    assert len(pairs) == i.size
    return pairs


@pytest.mark.parametrize("dim", [2, 3])
def test_close_pairs_match_kd_tree(dim):
    rng = np.random.default_rng(60 + dim)
    for n in (1, 2, 10, 100, 500):
        pts = rng.normal(size=(n, dim))
        for radius in (0.0, 0.01, 0.1, 0.5, 3.0):
            assert close_pairs_set(pts, radius) == query_pairs_reference(pts, radius)
    grid = rng.integers(0, 4, size=(200, dim)) * 0.5  # duplicates and exact ties
    # a line along the sweep (widest) coordinate, where pruning drops
    # nothing, and a cross whose shorter bar shares one sweep coordinate
    line_along = np.zeros((150, dim))
    line_along[:, 0] = rng.uniform(-5, 5, size=150)
    line_across = np.zeros((150, dim))
    line_across[:, 1] = rng.uniform(-2, 2, size=150)
    cross = np.concatenate([line_along, line_across])
    for pts in (grid, np.repeat(grid[:20], 3, axis=0), line_along, cross):
        for radius in (0.0, 0.5, 0.7, 1.0):
            assert close_pairs_set(pts, radius) == query_pairs_reference(pts, radius)


@pytest.mark.parametrize("skip", [1, 4, 40])
def test_close_pairs_skip_drops_only_index_near_pairs(skip):
    # a closed curve's samples in index order, and random points: the pairs
    # kept are exactly the default's pairs more than ``skip`` indices apart
    # around the circle, in the same order
    rng = np.random.default_rng(skip)
    curve = perturb(make_ellipse(2, 1), 0.12, 8, seed=3)
    samples = curve.eval(TWO_PI * np.arange(512) / 512)
    kept = dropped = 0
    for pts, radius in ((samples, 0.05), (samples, 0.5), (rng.normal(size=(300, 3)), 0.4)):
        i, j = _close_pairs(pts, radius)
        sep = j - i
        far = np.minimum(sep, len(pts) - sep) > skip
        got_i, got_j = _close_pairs(pts, radius, skip=skip)
        assert np.array_equal(got_i, i[far]) and np.array_equal(got_j, j[far])
        kept, dropped = kept + far.sum(), dropped + (~far).sum()
    assert kept > 0 and dropped > 0


def test_regularity_check_rejects_degenerate_curve():
    with pytest.raises(RegularityLost):
        Curve([0, 0], [[1.0], [0.0]], [[0.0], [0.0]])  # (cos t, 0) stalls at t=0


def test_regularity_check_sample_floor(ellipse21):
    with pytest.raises(ValueError, match="samples must be >= 16"):
        regularity_and_embedding_check(ellipse21, samples=8)


@pytest.mark.parametrize("bad", [100.5, 100.0, np.float64(100.0), "100"])
def test_regularity_check_rejects_non_integral_samples(ellipse21, bad):
    with pytest.raises(ValueError, match="samples must be an integer"):
        regularity_and_embedding_check(ellipse21, bad)
    assert regularity_and_embedding_check(ellipse21, np.int64(100)) == (
        regularity_and_embedding_check(ellipse21, 100)
    )


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    curve = random_smooth_curve(rng, dim=3, harmonics=2)
    data = json.loads(json.dumps(curve.to_json_dict()))
    back = curve_from_json_dict(data)
    assert np.array_equal(back.a0, curve.a0)
    assert np.array_equal(back.cos_coeffs, curve.cos_coeffs)
    assert np.array_equal(back.sin_coeffs, curve.sin_coeffs)


def test_json_ellipse_shorthand():
    curve = curve_from_json_dict({"type": "ellipse", "a": 2, "b": 1})
    assert np.allclose(curve.eval(0.0), [2, 0])


@pytest.mark.parametrize(
    "payload,fieldname",
    [
        ({"type": "ellipse", "a": 2}, "b"),
        ({"dim": 2}, "coords"),
        ({"coords": []}, "dim"),
        ({"dim": 2, "coords": [{"a0": 0, "cos": [1]}, {"a0": 0, "cos": [0], "sin": [1]}]}, "sin"),
    ],
)
def test_json_errors_name_the_field(payload, fieldname):
    with pytest.raises(ValueError, match=fieldname):
        curve_from_json_dict(payload)


def test_curve_arrays_immutable(ellipse21):
    with pytest.raises(ValueError):
        ellipse21.cos_coeffs[0, 0] = 5.0
