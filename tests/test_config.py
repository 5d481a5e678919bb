import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepeg import (
    Config4,
    Stratum,
    Variation4,
    block_cycle_orientation_sign,
    cyclic_relabel,
    direction,
    g_map,
    ordered_component_check,
    ratio,
    s_ratio,
    strata_proximity,
)
from squarepeg.errors import CoincidentPoints, IndeterminateRatio

UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


def test_direction_basic():
    assert np.allclose(direction([1, 0], [0, 0]), [1, 0])
    assert np.allclose(direction([1, 1, 0], [0, 0, 0]), [1 / np.sqrt(2), 1 / np.sqrt(2), 0])


def test_direction_antisymmetry_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p, q = rng.normal(size=(2, 3))
        assert np.allclose(direction(p, q), -direction(q, p), atol=1e-14)
        assert abs(np.linalg.norm(direction(p, q)) - 1) < 1e-14


def test_direction_coincident_raises():
    with pytest.raises(CoincidentPoints):
        direction([1, 2], [1, 2])


def test_ratio_examples():
    sq = UNIT_SQUARE
    assert ratio(sq[0], sq[1], sq[3]) == pytest.approx(1.0)
    assert ratio([0, 0], [1, 0], [3, 0]) == pytest.approx(1 / 3)
    assert ratio(sq[0], sq[2], sq[1]) == pytest.approx(np.sqrt(2))


def test_ratio_infinite_and_indeterminate():
    assert ratio([0, 0], [1, 0], [0, 0]) == np.inf
    with pytest.raises(IndeterminateRatio):
        ratio([0, 0], [0, 0], [0, 0])


def test_s_ratio_values():
    assert s_ratio([0, 0], [1, 0], [1, 0]) == pytest.approx(0.5)  # ratio 1
    assert s_ratio([0, 0], [0, 0], [1, 0]) == pytest.approx(0.0)  # ratio 0
    assert s_ratio([0, 0], [1, 0], [0, 0]) == pytest.approx(1.0)  # ratio inf


@settings(max_examples=60)
@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1e-6, max_value=50.0),
)
def test_s_ratio_monotone_in_ratio(r1, gap):
    r2 = r1 + gap
    s1 = s_ratio([0, 0], [r1, 0], [1, 0])
    s2 = s_ratio([0, 0], [r2, 0], [1, 0])
    assert 0.0 <= s1 < s2 <= 1.0


def test_config4_caches():
    c = Config4(UNIT_SQUARE)
    assert c.dist(1, 2) == pytest.approx(1.0)
    assert c.dist(1, 3) == pytest.approx(np.sqrt(2))
    assert c.dist(2, 1) == c.dist(1, 2)
    assert np.allclose(c.direction(1, 2), -c.direction(2, 1))
    assert c.ratio(1, 2, 4) == pytest.approx(1.0)
    assert c.s_ratio(1, 2, 4) == pytest.approx(0.5)
    assert c.min_separation() == pytest.approx(1.0)
    assert c.diameter() == pytest.approx(np.sqrt(2))


ACCESSORS = {
    "point": lambda c, k: c.point(k),
    "dist": lambda c, k: c.dist(k, 2),
    "direction": lambda c, k: c.direction(1, k),
    "ratio": lambda c, k: c.ratio(k, 1, 2),
    "s_ratio": lambda c, k: c.s_ratio(1, 2, k),
    "Variation4.single": lambda c, k: Variation4.single(k, [1.0, 0.0], dim=2),
}


@pytest.mark.parametrize("label", [0, -1, 5])
@pytest.mark.parametrize("accessor", sorted(ACCESSORS))
def test_labels_outside_1_to_4_raise(accessor, label):
    # 0 and -1 once read p4 and p3 through negative indexing, 5 an IndexError
    with pytest.raises(ValueError, match=f"point labels are 1-4, got {label}$"):
        ACCESSORS[accessor](Config4(UNIT_SQUARE), label)


@pytest.mark.parametrize("points", [5, [1.0, 2.0], np.zeros((3, 2)), np.zeros((4, 2, 1))])
def test_config4_names_a_wrong_shape(points):
    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(points)}")):
        Config4(points)


def test_config4_immutable():
    c = Config4(UNIT_SQUARE)
    with pytest.raises(AttributeError):
        c.points = None
    with pytest.raises(ValueError):
        c.points[0, 0] = 9.0


def test_cyclic_relabel_rolls_points():
    c = Config4([[0, 0], [1, 0], [2, 0.5], [3, 1]])
    m = cyclic_relabel(c)
    assert np.array_equal(m.points, np.roll(c.points, -1, axis=0))
    four = cyclic_relabel(cyclic_relabel(cyclic_relabel(m)))
    assert np.array_equal(four.points, c.points)


def test_cyclic_relabel_preserves_square_likeness():
    c = Config4(UNIT_SQUARE)
    assert np.allclose(g_map(cyclic_relabel(c)), [1, 1, 1, 0], atol=1e-14)


@pytest.mark.parametrize(
    "angles,expected",
    [
        ((0.1, 1.0, 2.0, 3.0), True),
        ((5.0, 0.2, 1.1, 3.0), True),
        ((0.1, 2.0, 1.0, 3.0), False),
        ((0.0, 0.0, 1.0, 2.0), False),
        ((0.0, 1.0, 2.0, np.inf), False),
        ((np.nan, 1.0, 2.0, 3.0), False),
    ],
)
@pytest.mark.filterwarnings("error")
def test_ordered_component_check(angles, expected):
    assert ordered_component_check(angles) is expected


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=6.28), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=3),
)
def test_ordered_component_rotation_invariant(angles, shift):
    rolled = np.roll(np.array(angles), shift)
    assert ordered_component_check(angles) == ordered_component_check(rolled)


def test_collinear_ratio_relations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=3)
        u = rng.normal(size=3)
        t = rng.uniform(0.1, 0.9)
        p1, p2, p3 = a, a + t * u, a + u  # p2 strictly between p1 and p3
        r123 = ratio(p1, p2, p3)
        r321 = ratio(p3, p2, p1)
        r231 = ratio(p2, p3, p1)
        r132 = ratio(p1, p3, p2)
        assert abs(r123 + r321 - 1.0) < 1e-12
        assert abs(1.0 + r231 - r132) < 1e-10 * max(1.0, r132)


def test_strata_proximity_interior():
    c = Config4(UNIT_SQUARE)
    s = strata_proximity(c, scale=1.0, eps=1e-3)
    assert s.label == "interior"
    assert s.codim == 0


def test_strata_proximity_two_pairs():
    c = Config4([[0, 0], [1, 0], [1e-9, 0], [1, 1e-9]])
    s = strata_proximity(c, scale=1.0, eps=1e-3)
    assert s.label == "(13)(24)"
    assert s.codim == 2


def test_strata_proximity_total_collapse():
    c = Config4(1e-9 * np.array([[0, 0], [0.1, 0], [0, 0.1], [0.1, 0.1]]))
    s = strata_proximity(c, scale=1.0, eps=1e-3)
    assert s.label == "(1234)"
    assert s.codim == 1


@pytest.mark.parametrize(
    "pts,label",
    [
        # 1-2 and 2-3 within eps, 1-3 not: single linkage joins all three
        ([[0, 0], [8e-4, 0], [1.6e-3, 0], [1, 1]], "(123)"),
        # the chain 1-4-2 runs through the largest label
        ([[0, 0], [1.6e-3, 0], [1, 1], [8e-4, 0]], "(124)"),
    ],
)
def test_strata_proximity_chain(pts, label):
    s = strata_proximity(Config4(pts), scale=1.0, eps=1e-3)
    assert (s.label, s.codim) == (label, 1)


def test_strata_proximity_rigid_motion_invariant():
    rng = np.random.default_rng(2)
    pts = np.array([[0, 0], [1, 0], [1e-9, 0], [1, 1e-9]], dtype=float)
    angle = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = Config4(pts @ rot.T + rng.normal(size=2))
    assert strata_proximity(moved, scale=1.0, eps=1e-3).label == "(13)(24)"


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"scale": np.nan}, "scale"),
        ({"scale": np.inf}, "scale"),
        ({"scale": 0.0}, "scale"),
        ({"scale": 1.0, "eps": np.nan}, "eps"),
        ({"scale": 1.0, "eps": np.inf}, "eps"),
        ({"scale": 1.0, "eps": -1.0}, "eps"),
    ],
)
def test_strata_proximity_rejects_bad_scale_and_eps(kwargs, match):
    c = Config4([[0, 0], [1e-9, 0], [1, 1], [0, 1]])
    assert strata_proximity(c, scale=1.0).label == "(12)"
    with pytest.raises(ValueError, match=f"{match} must be finite"):
        strata_proximity(c, **kwargs)


def test_stratum_from_clusters_drops_singletons():
    s = Stratum.from_clusters([[1], [2, 4], [3]])
    assert s.label == "(24)"
    assert s.codim == 1
    assert Stratum.from_clusters([[1], [2], [3], [4]]).label == "interior"


@pytest.mark.parametrize("k", range(1, 9))
def test_block_cycle_orientation_sign(k):
    assert block_cycle_orientation_sign(k) == (-1) ** k
