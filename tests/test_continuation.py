from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from squarepeg import (
    Curve,
    SolveReport,
    SolverOptions,
    class_distance,
    find_all,
    interpolate,
    make_ellipse,
    perturb,
    track,
)
from squarepeg import continuation
from squarepeg.continuation import (
    FRESH_GRID,
    _bisect_event,
    _event_kind,
    _match_classes,
    _min_cost_assignment,
)
from squarepeg.errors import DimensionMismatch, NonTransversePath, RegularityLost


def test_interpolate_endpoints_exact(ellipse21, three_lobe):
    start = interpolate(ellipse21, three_lobe, 0.0)
    end = interpolate(ellipse21, three_lobe, 1.0)
    grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert np.array_equal(start.eval(grid), ellipse21.eval(grid))
    assert np.array_equal(end.eval(grid), three_lobe.eval(grid))


def test_interpolate_midpoint_of_ellipses():
    mid = interpolate(make_ellipse(2, 1), make_ellipse(4, 1), 0.5)
    expected = make_ellipse(3, 1)
    assert np.allclose(mid.cos_coeffs, expected.cos_coeffs)
    assert np.allclose(mid.sin_coeffs, expected.sin_coeffs)


def test_interpolate_dimension_mismatch(ellipse21):
    spatial = Curve(
        [0, 0, 0],
        [[2.0], [0.0], [0.0]],
        [[0.0], [1.0], [0.3]],
    )
    with pytest.raises(DimensionMismatch):
        interpolate(ellipse21, spatial, 0.5)


def test_track_constant_path(ellipse21):
    trace = track(ellipse21, ellipse21, steps=6)
    assert trace.class_counts == [1] * 7
    assert trace.events == []
    assert set(trace.parity_per_step) == {"odd"}


def test_track_to_perturbed_ellipse(ellipse21):
    target = perturb(ellipse21, 0.05, 5, seed=7)
    trace = track(ellipse21, target, steps=12)
    assert set(trace.parity_per_step) == {"odd"}
    assert trace.class_counts[0] == 1


def test_track_birth_event_to_three_lobe(ellipse21, three_lobe):
    trace = track(ellipse21, three_lobe, steps=16)
    assert set(trace.parity_per_step) == {"odd"}
    assert trace.class_counts[0] == 1
    assert trace.class_counts[-1] == 3
    assert len(trace.events) == 1
    event = trace.events[0]
    assert event.kind == "Birth"
    assert len(event.classes) == 2
    assert event.t_hi - event.t_lo <= 1e-4
    # counts only change by +-2 between consecutive steps
    deltas = np.diff(trace.class_counts)
    assert set(np.abs(deltas[deltas != 0])) <= {2}


def test_track_death_event_from_three_lobe(ellipse21, three_lobe):
    trace = track(three_lobe, ellipse21, steps=16)
    assert trace.class_counts[0] == 3 and trace.class_counts[-1] == 1
    assert [event.kind for event in trace.events] == ["Death"]
    assert len(trace.events[0].classes) == 2


def test_min_cost_assignment_matches_scipy():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n, m = rng.integers(1, 13, size=2)
        cost = rng.uniform(0, 1, size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
        for matrix in (cost, cost.T):  # both orientations
            rows, cols = _min_cost_assignment(matrix)
            expected_rows, expected_cols = linear_sum_assignment(matrix)
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(cols, expected_cols)
        # with ties several matchings are optimal: compare the total cost
        ties = rng.integers(0, 3, size=(n, m)).astype(float)
        rows, cols = _min_cost_assignment(ties)
        expected_rows, expected_cols = linear_sum_assignment(ties)
        assert len(rows) == min(n, m) and np.all(np.diff(rows) > 0)
        assert len(set(cols.tolist())) == len(cols)
        assert ties[rows, cols].sum() == ties[expected_rows, expected_cols].sum()


def test_track_endpoint_consistency(ellipse21, three_lobe):
    opts = SolverOptions(grid=16)
    trace = track(ellipse21, three_lobe, steps=8, opts=opts)
    for curve, report in ((ellipse21, trace.reports[0]), (three_lobe, trace.reports[-1])):
        direct = find_all(curve, opts)
        assert len(direct.classes) == len(report.classes)
        for a, b in zip(direct.classes, report.classes):
            assert class_distance(a.theta, b.theta) < 1e-9


def test_track_refinement_keeps_parity(ellipse21, three_lobe):
    coarse = track(ellipse21, three_lobe, steps=8)
    fine = track(ellipse21, three_lobe, steps=16)
    assert set(coarse.parity_per_step) == set(fine.parity_per_step) == {"odd"}
    assert coarse.class_counts[-1] == fine.class_counts[-1]


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), "2", 0])
def test_track_rejects_non_integral_steps(ellipse21, bad):
    match = "steps must be >= 1" if isinstance(bad, int) else "steps must be an integer"
    with pytest.raises(ValueError, match=match):
        track(ellipse21, ellipse21, steps=bad)
    assert track(ellipse21, ellipse21, steps=np.int64(1)).class_counts == [1, 1]


def test_track_regularity_lost(ellipse21):
    mirrored = Curve(
        ellipse21.a0, -np.asarray(ellipse21.cos_coeffs), -np.asarray(ellipse21.sin_coeffs)
    )
    with pytest.raises(RegularityLost) as err:
        track(ellipse21, mirrored, steps=8)
    assert err.value.t == pytest.approx(0.5, abs=1e-9)


def test_track_stops_where_the_curve_is_too_small_for_its_offset(ellipse21):
    # centred at (1, 1), the path to the mirrored ellipse has a diameter of 8e-4
    # at t = 0.4999: the path is lost there (exit 2), it is not bad input (exit 1)
    shifted = ellipse21.a0 + 1
    c0 = Curve(shifted, ellipse21.cos_coeffs, ellipse21.sin_coeffs)
    c1 = Curve(shifted, -ellipse21.cos_coeffs, -ellipse21.sin_coeffs)
    with pytest.raises(RegularityLost, match="exceeds 1000 x its diameter") as err:
        continuation._curve_at(c0, c1, 0.4999)
    assert err.value.t == 0.4999


def test_track_embedding_lost_at_target(ellipse21):
    # the target is regular but crosses itself: the embedding check stops the path
    with pytest.raises(RegularityLost, match="embedding lost") as err:
        track(ellipse21, perturb(ellipse21, 0.12, 8, seed=3), steps=2)
    assert err.value.t == 1.0


def _report(*thetas) -> SolveReport:
    """A report whose classes carry only their angles, all the matching reads."""
    classes = [SimpleNamespace(theta=np.array(t, dtype=float)) for t in thetas]
    return SolveReport(classes=classes)


SQUARE = (0.1, 1.7, 3.2, 4.8)


def test_match_classes_with_one_side_empty():
    born, died = _match_classes(_report(), _report(SQUARE))
    assert died == [] and np.array_equal(born, [SQUARE])
    born, died = _match_classes(_report(SQUARE), _report())
    assert born == [] and np.array_equal(died, [SQUARE])


def test_event_kind():
    a, b = np.array(SQUARE), np.array(SQUARE) + 0.2
    assert _event_kind([a, b], []) == "Birth"
    assert _event_kind([], [a, b]) == "Death"
    for born, died in (([a], []), ([a], [b]), ([a, b], [a])):
        assert _event_kind(born, died) == "Fold"


def test_bisect_event_keeps_an_interval_without_a_count_change():
    # equal counts: nothing to bisect, so no curve is built or solved
    moved = tuple(t + 0.3 for t in SQUARE)
    interval = _bisect_event(None, 0.25, 0.5, _report(SQUARE), _report(moved))
    assert interval == (0.25, 0.5)


def test_track_nontransverse_endpoint(unit_circle, ellipse21):
    message = "endpoint at t=0 withholds parity: NonTransverse"
    with pytest.raises(NonTransversePath, match=message) as err:
        track(unit_circle, ellipse21, steps=4)
    assert err.value.t == 0.0


def test_track_names_the_flag_that_withholds_parity():
    # the guard drops the ellipse's one square: the endpoint is near the
    # boundary, not non-transverse, and the error says so
    opts = SolverOptions(sep_guard=0.9)
    with pytest.raises(NonTransversePath, match="withholds parity: NearBoundary$") as err:
        track(make_ellipse(2, 1), make_ellipse(2, 1.2), steps=2, opts=opts)
    assert err.value.t == 0.0


def test_track_names_the_flags_of_a_step_withheld_after_its_retry(ellipse21, monkeypatch):
    # every interior solve withholds parity: the step at 0.5 and its retry at 0.25
    solved = []

    def interior_withheld(curve, opts, extra_seeds=None):
        report = find_all(curve, opts, extra_seeds=extra_seeds)
        solved.append(opts.grid)
        if opts.grid != FRESH_GRID:
            return report
        return replace(report, degeneracy_flags=["NearBoundary"])

    monkeypatch.setattr(continuation, "find_all", interior_withheld)
    message = "step retried at t=0.25 from t=0.5 withholds parity: NearBoundary$"
    with pytest.raises(NonTransversePath, match=message) as err:
        track(ellipse21, ellipse21, steps=2)
    assert err.value.t == 0.5
    assert solved == [24, FRESH_GRID, FRESH_GRID]


def test_track_retries_a_withheld_interior_step():
    # the path passes through the circle at t = 0.5, whose continuum of
    # squares withholds parity; the step is retried half way back, at 0.375
    trace = track(make_ellipse(2, 1), make_ellipse(1, 2), steps=4)
    assert trace.ts == [0.0, 0.25, 0.375, 0.75, 1.0]
    assert trace.class_counts == [1] * 5
    assert trace.parity_per_step == ["odd"] * 5
    assert trace.events == []
