"""A tier-1 slice of the parity census (``tests/census.py``, ``scripts/parity_census.py``).

Twenty space curves: the first sixteen kept seeds that read odd, and four
that read even because ``find_all`` misses classes there.  Seven curves in
R^4: seeds 1000-1004, odd, and two misses.  Fixing the misses flips those
strict xfails.
"""

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
