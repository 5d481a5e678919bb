"""Tracks inscribed square-like quadrilaterals along a family of curves.

The family is the straight line between two coefficient sets.  Each step
re-solves seeded by the previous step's classes plus a fresh scan of a
coarser lattice and the short-arc windows, matches classes between steps,
and records birth/death events; transverse steps must keep the class-count
parity constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import _as_count
from .curve import Curve, _zero_padded, regularity_and_embedding_check
from .errors import DimensionMismatch, NonTransversePath, RegularityLost
from .solver import TRACK_STEPS, SolveReport, SolverOptions, _class_distances, find_all

#: lattice size of interior steps (endpoints use ``opts.grid``)
FRESH_GRID = 12

#: refined event intervals stop at this width in t
EVENT_T_TOL = 1e-4

#: min self-distance below this fraction of the diameter aborts the path
EMBED_GUARD = 1e-3

#: samples for the per-step embedding check
STEP_CHECK_SAMPLES = 1024


def interpolate(c0: Curve, c1: Curve, t: float) -> Curve:
    """Coefficient-wise (1-t) c0 + t c1, zero-padding the shorter harmonics."""
    if c0.dim != c1.dim:
        raise DimensionMismatch(f"curve dims differ: {c0.dim} vs {c1.dim}")
    h = max(c0.harmonics, c1.harmonics)
    s = float(t)
    return Curve(
        (1.0 - s) * c0.a0 + s * c1.a0,
        (1.0 - s) * _zero_padded(c0.cos_coeffs, h) + s * _zero_padded(c1.cos_coeffs, h),
        (1.0 - s) * _zero_padded(c0.sin_coeffs, h) + s * _zero_padded(c1.sin_coeffs, h),
    )


@dataclass(frozen=True)
class TrackEvent:
    """A class-count change localized to (t_lo, t_hi).

    ``kind`` is "Birth" or "Death" for a clean conjugate pair (+2 / -2), and
    "Fold" for anything that does not fit that pattern.
    """

    t_lo: float
    t_hi: float
    kind: str
    classes: list


@dataclass(frozen=True)
class ContinuationTrace:
    ts: list
    reports: list
    events: list

    @property
    def class_counts(self) -> list:
        return [len(r.classes) for r in self.reports]

    @property
    def parity_per_step(self) -> list:
        return [r.parity for r in self.reports]


def track(
    c0: Curve,
    c1: Curve,
    steps: int = TRACK_STEPS,
    opts: SolverOptions | None = None,
) -> ContinuationTrace:
    """Follow the solution classes of (1-t) c0 + t c1 for t in [0, 1].

    Endpoints are solved at the lattice size ``opts.grid``; interior steps
    reuse the previous step's classes as seeds plus a scan at lattice size
    ``FRESH_GRID``, with the same short-arc windows.  A class-count change
    between two steps is bisected as soon as the later step is solved.  Raises
    ``RegularityLost`` if any intermediate curve fails the regularity or
    embedding check, and ``NonTransversePath``, naming the report's
    degeneracy flags, if an endpoint withholds parity or an interior step
    still does after one retry half way back to the previous step.
    """
    steps = _as_count("steps", steps, minimum=1)
    opts = opts or SolverOptions()
    interior = replace(opts, grid=FRESH_GRID)

    def solve(t, seeds, step_opts=interior):
        return find_all(_curve_at(c0, c1, t), step_opts, extra_seeds=seeds)

    actual_ts, reports, events = [], [], []
    prev_thetas = None
    for i in range(steps + 1):
        t = t_used = i / steps
        endpoint = i == 0 or i == steps
        report = solve(t, prev_thetas, opts if endpoint else interior)
        if report.parity == "withheld" and not endpoint:
            t_used = 0.5 * ((i - 1) / steps + t)
            report = solve(t_used, prev_thetas)
        if report.parity == "withheld":
            where = "endpoint at" if endpoint else f"step retried at t={t_used:.6g} from"
            flags = ", ".join(report.degeneracy_flags)
            raise NonTransversePath(f"{where} t={t:.6g} withholds parity: {flags}", t=t)
        if reports:
            born, died = _match_classes(reports[-1], report)
            if born or died:
                t_lo, t_hi = _bisect_event(solve, actual_ts[-1], t_used, reports[-1], report)
                events.append(TrackEvent(t_lo, t_hi, _event_kind(born, died), born + died))
        actual_ts.append(t_used)
        reports.append(report)
        prev_thetas = np.array([s.theta for s in report.classes]).reshape(-1, 4)

    return ContinuationTrace(ts=actual_ts, reports=reports, events=events)


# ---------------------------------------------------------------------------
# internals


def _curve_at(c0: Curve, c1: Curve, t: float) -> Curve:
    try:
        curve = interpolate(c0, c1, t)
    except (RegularityLost, ValueError) as exc:  # ValueError: float64 cannot resolve it
        raise RegularityLost(f"regularity lost at t={t:.6g}: {exc}", t=t) from exc
    check = regularity_and_embedding_check(curve, samples=STEP_CHECK_SAMPLES)
    if check["min_self_distance"] <= EMBED_GUARD * curve.diameter:
        raise RegularityLost(
            f"embedding lost at t={t:.6g}: min self distance "
            f"{check['min_self_distance']:.3e}",
            t=t,
        )
    return curve


def _match_classes(prev: SolveReport, cur: SolveReport):
    """Nearest-angle assignment between consecutive class sets.

    Matches above 10x the median matched drift are rejected, so a class that
    jumps implausibly far counts as one death plus one birth.
    """
    a = [s.theta for s in prev.classes]
    b = [s.theta for s in cur.classes]
    if not a or not b:
        return list(b), list(a)
    dist = _class_distances(np.array(a), np.array(b))
    rows, cols = _min_cost_assignment(dist)
    drifts = dist[rows, cols]
    kept = drifts <= max(10.0 * float(np.median(drifts)), 1e-9)
    born = [b[j] for j in np.setdiff1d(np.arange(len(b)), cols[kept])]
    died = [a[i] for i in np.setdiff1d(np.arange(len(a)), rows[kept])]
    return born, died


def _min_cost_assignment(cost: np.ndarray):
    """(rows, cols) of scipy's ``linear_sum_assignment`` on a finite (n, m) matrix.

    The Hungarian method with potentials (Kuhn 1955) in the shortest-
    augmenting-path form of Jonker and Volgenant (1987), on plain lists,
    as the matrices are a few classes across.
    """
    transposed = cost.shape[0] > cost.shape[1]
    c = (cost.T if transposed else cost).tolist()
    n, m, inf = len(c), len(c[0]), float("inf")
    u, v, row_of = [0.0] * (n + 1), [0.0] * (m + 1), [0] * (m + 1)  # 1-based; column 0 is the root
    for i in range(1, n + 1):
        row_of[0], j0 = i, 0
        dist, prev, done = [inf] * (m + 1), [0] * (m + 1), [False] * (m + 1)
        while row_of[j0]:
            done[j0] = True
            row, ui, delta, j1 = c[row_of[j0] - 1], u[row_of[j0]], inf, 0
            for j in range(1, m + 1):
                if not done[j]:
                    if row[j - 1] - ui - v[j] < dist[j]:
                        dist[j], prev[j] = row[j - 1] - ui - v[j], j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(m + 1):
                if done[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to the root
            row_of[j0], j0 = row_of[prev[j0]], prev[j0]
    pairs = sorted((row_of[j] - 1, j - 1) for j in range(1, m + 1) if row_of[j])
    return np.array(sorted((j, i) for i, j in pairs) if transposed else pairs).T


def _event_kind(born, died) -> str:
    if len(born) == 2 and not died:
        return "Birth"
    if len(died) == 2 and not born:
        return "Death"
    return "Fold"


def _bisect_event(solve, t_lo, t_hi, rep_lo, rep_hi):
    """Shrink the interval where the class count changes to width EVENT_T_TOL.

    ``solve(t, seeds)`` is ``track``'s solve of an interior step.
    """
    count_lo = len(rep_lo.classes)
    count_hi = len(rep_hi.classes)
    if count_lo == count_hi:
        return t_lo, t_hi
    seeds = np.array(
        [s.theta for s in rep_lo.classes] + [s.theta for s in rep_hi.classes]
    ).reshape(-1, 4)
    lo, hi = t_lo, t_hi
    while hi - lo > EVENT_T_TOL:
        mid = 0.5 * (lo + hi)
        if len(solve(mid, seeds).classes) == count_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi
