import json

import numpy as np
import pytest

from squarepeg import (
    Curve,
    curve_from_json_dict,
    make_ellipse,
    perturb,
    regularity_and_embedding_check,
)
from squarepeg.errors import RegularityLost

from conftest import random_smooth_curve

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


@pytest.mark.parametrize("samples", [16, 100, 1024])
def test_embedding_check_matches_brute_force(samples):
    rng = np.random.default_rng(samples)
    figure_eight = Curve([0, 0], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    curves = [figure_eight] + [
        random_smooth_curve(rng, dim=dim, harmonics=5) for dim in (2, 2, 3)
    ]
    for curve in curves:
        got = regularity_and_embedding_check(curve, samples=samples)["min_self_distance"]
        assert got == pytest.approx(min_self_distance_reference(curve, samples), rel=1e-12)


def test_regularity_check_rejects_degenerate_curve():
    with pytest.raises(RegularityLost):
        Curve([0, 0], [[1.0], [0.0]], [[0.0], [0.0]])  # (cos t, 0) stalls at t=0


def test_regularity_check_sample_floor(ellipse21):
    with pytest.raises(ValueError):
        regularity_and_embedding_check(ellipse21, samples=8)


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
