"""A tier-1 slice of the parity census (``tests/census.py``, ``scripts/parity_census.py``).

Twenty space curves: the first sixteen kept seeds that read odd, and four
that read even because ``find_all`` misses classes there.  Seven curves in
R^4: seeds 1000-1004, odd, and two misses.  Seventeen curves with a k-fold
symmetry: two closed seeds per k and kind, four that read odd but are not
closed under the symmetry, and one that reads even.  Fixing the misses
flips those strict xfails.
"""

import functools

import numpy as np
import pytest

import census
from squarepeg import find_all

ODD = (1000, 1004, 1005, 1006, 1007, 1008, 1009, 1010,
       1012, 1015, 1017, 1019, 1032, 1039, 1040, 1041)  # fmt: skip

#: the oracle at n = 64 finds 21, 5 and 3 classes on the first three
MISSES = (1016, 1079, 1081, 1118)

MISS_REASON = (
    "find_all misses classes on close strands and reads even; "
    "ROADMAP items 1 (two-arc windows) and 11 (arc pairing)"
)

#: R^4, seeds that read odd with 1, 11, 7, 7 and 11 classes
ODD4 = (1000, 1001, 1002, 1003, 1004)

#: R^4: on each the oracle finds 3 classes, and ``find_all`` 2 of them
MISSES4 = (1051, 1395)

MISS4_REASON = (
    "find_all finds 2 of the oracle's 3 classes in R^4 and reads even; "
    "ROADMAP items 1 and 11"
)


#: (kind, k, seed): closed and odd, two per k and kind, one of them with more
#: than one orbit of k classes where seeds 0-11 hold one
SYM_CLOSED = (
    ("planar", 3, 0), ("planar", 3, 2), ("planar", 5, 0), ("planar", 5, 1),
    ("planar", 7, 0), ("planar", 7, 8), ("space", 3, 0), ("space", 3, 2),
    ("space", 5, 0), ("space", 5, 1), ("space", 7, 0), ("space", 7, 4),
)  # fmt: skip

#: odd, with 11, 27, 17 and 33 classes, yet not closed: misses parity cannot see
SYM_NOT_CLOSED = (("space", 3, 26), ("space", 5, 170), ("space", 7, 26), ("space", 7, 155))

SYM_NOT_CLOSED_REASON = (
    "find_all misses whole orbits' worth of classes on symmetric space curves "
    "and still reads odd; ROADMAP items 15 and 1"
)

#: 14 classes, even and not a multiple of 5
SYM_EVEN = (("planar", 5, 101),)

SYM_EVEN_REASON = "find_all misses classes of a 5-fold symmetric curve and reads even"


def sym_id(case) -> str:
    kind, k, seed = case
    return f"{kind}-k{k}-{seed}"


def missed(seeds, reason):
    mark = pytest.mark.xfail(strict=True, reason=reason)
    return [pytest.param(s, marks=mark) for s in seeds]


def census_reports(recipe, seeds):
    kept = dict(census.kept(recipe, sorted(seeds)))
    assert sorted(kept) == sorted(seeds)
    return {seed: find_all(curve) for seed, curve in kept.items()}


@pytest.fixture(scope="module")
def reports():
    return census_reports(census.space_curve, ODD + MISSES)


@pytest.fixture(scope="module")
def reports4():
    return census_reports(census.space4_curve, ODD4 + MISSES4)


def test_census_slice_states_parity_without_a_flag(reports, reports4):
    for recipe, found in (("space", reports), ("space4", reports4)):
        for seed, report in found.items():
            assert report.degeneracy_flags == [], (recipe, seed)
            assert report.parity in ("odd", "even"), (recipe, seed)


@pytest.mark.parametrize("seed", [*ODD, *missed(MISSES, MISS_REASON)])
def test_census_slice_is_odd(reports, seed):
    assert reports[seed].parity == "odd"


@pytest.mark.parametrize("seed", [*ODD4, *missed(MISSES4, MISS4_REASON)])
def test_census_slice_in_r4_is_odd(reports4, seed):
    assert reports4[seed].parity == "odd"


@pytest.fixture(scope="module")
def sym_reports():
    found = {}
    for kind, k, seed in SYM_CLOSED + SYM_NOT_CLOSED + SYM_EVEN:
        recipe = functools.partial(census.symmetric_curve, k, space=kind == "space")
        [(_, curve)] = census.kept(recipe, [seed])
        found[kind, k, seed] = find_all(curve)
    return found


@pytest.mark.parametrize("k", census.SYMMETRY_ORDERS)
def test_symmetric_curve_has_its_symmetry(k):
    # gamma(t + 2 pi / k) is gamma(t) turned by 2 pi / k about the z axis
    t = np.linspace(0.0, 2 * np.pi, 50)
    c, s = np.cos(2 * np.pi / k), np.sin(2 * np.pi / k)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    curve = census.symmetric_curve(k, 0, space=True)
    turned = curve.eval(t) @ rotation.T
    assert np.abs(curve.eval(t + 2 * np.pi / k) - turned).max() < 1e-12
    planar = census.symmetric_curve(k, 0, space=False)
    assert np.array_equal(planar.cos_coeffs, curve.cos_coeffs[:2])


@pytest.mark.parametrize(
    "case", [*SYM_CLOSED, *missed(SYM_NOT_CLOSED, SYM_NOT_CLOSED_REASON)], ids=sym_id
)
def test_symmetric_slice_is_closed(sym_reports, case):
    assert census.closed(sym_reports[case], case[1])


@pytest.mark.parametrize(
    "case", [*SYM_CLOSED, *SYM_NOT_CLOSED, *missed(SYM_EVEN, SYM_EVEN_REASON)], ids=sym_id
)
def test_symmetric_slice_is_odd(sym_reports, case):
    assert sym_reports[case].degeneracy_flags == []
    assert sym_reports[case].parity == "odd"
