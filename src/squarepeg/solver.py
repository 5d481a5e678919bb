"""Finds inscribed square-like quadrilaterals by damped Newton on the 4-torus.

The residual G(theta) = g(gamma(theta_1..4)) - (1,1,1,0) is driven to zero
from ordered seeds at the discrete local minima of its sup-norm, on a lattice
of equally spaced curve samples and on short arcs sized for squares down
to ``SIZE_FLOOR``.  Converged roots are certified by the 4x4
reduced Jacobian determinant, deduplicated up to cyclic relabeling, and
reported with a parity verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import TWO_PI, Config4, _component_labels, _ordered_batch, ordered_component_check
from .curve import Curve
from .errors import (
    DegenerateConfiguration,
    Divergence,
    LeftOrderedComponent,
    NearBoundary,
    SingularJacobianDuringIteration,
)
from .slq import G_TARGET

#: minimum separation (relative to diameter) below which G is not evaluated
MACHINE_SEP = 1e-9

#: a Jacobian row this much smaller than the largest row counts as zero
ROW_FLOOR = 1e-12

#: distance pairs used by the residual, 0-based
_PAIRS = ((0, 1), (0, 3), (1, 2), (2, 3), (0, 2), (1, 3))
_PAIR_I = np.array([i for i, _ in _PAIRS])
_PAIR_J = np.array([j for _, j in _PAIRS])

#: g = numerators / denominators, both linear in the squared pair lengths
#: s01, s03, s12, s23, s02, s13: rows 0-3 numerators, rows 4-7 denominators
_NUM_DEN = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, -1],
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)


def _dots_to_dnum_den() -> np.ndarray:
    """(12, 32) map from pair dot products to the derivatives of ``_NUM_DEN``.

    d s_ij / d theta_c is 2 (p_i - p_j) . gamma'_c for c = i and minus that
    for c = j.  A row of the 12 dot products (p_i - p_j) . gamma'_i, then
    (p_i - p_j) . gamma'_j, times this matrix gives the derivatives of the 8
    numerator/denominator rows in the 4 angles, laid out row-major as (8, 4).
    """
    dsq = np.zeros((12, 6, 4))
    dsq[np.arange(6), np.arange(6), _PAIR_I] = 2.0
    dsq[6 + np.arange(6), np.arange(6), _PAIR_J] = -2.0
    return np.matmul(_NUM_DEN, dsq).reshape(12, 32)


_DOTS_TO_DNUM_DEN = _dots_to_dnum_den()
_PAIR_IJ = np.concatenate([_PAIR_I, _PAIR_J])

#: Newton step fractions 2^-k, k = 1..10, tried in one kernel call by the rows
#: that the full step does not improve; shaped to broadcast against (rows, 4) steps
_HALVINGS = np.ldexp(1.0, -np.arange(1, 11))[:, None, None]

#: delta: the smallest vertex separation, over the curve diameter, of the
#: squares that the default short-arc windows were sized for.  A design
#: target, not a bound checked on any solve: nothing derives it from the
#: window sizes below or from the curve
SIZE_FLOOR = 0.005

#: the windows: ``WINDOW_ARCS`` arcs [c, c + WINDOW_WIDTH) with equally
#: spaced starts c, each sampled at ``WINDOW_SAMPLES`` equally spaced angles
WINDOW_ARCS = 128
WINDOW_WIDTH = 0.5
WINDOW_SAMPLES = 14

#: a discrete local minimum seeds Newton when its residual sup-norm is below
#: ``LATTICE_SEED_NORM`` on the lattice and ``SEED_NORM`` on the windows; a
#: window threshold of 0.9 seeds thousands of short-arc tuples on every curve
LATTICE_SEED_NORM = 0.9
SEED_NORM = 0.75

#: row blocks of the pairwise class-distance matrix
_DISTANCE_BLOCK_ROWS = 256

#: row s indexes np.roll(tuple, s), for the four cyclic shifts at once
_CYCLIC_SHIFTS = (np.arange(4) - np.arange(4)[:, None]) % 4

_STATUS_CONVERGED = 0
_STATUS_DIVERGED = 1
_STATUS_LEFT_ORDERED = 2
_STATUS_NEAR_BOUNDARY = 3


@dataclass(frozen=True)
class SolverOptions:
    grid: int = 24
    tol_residual: float = 1e-12
    max_iters: int = 50
    dedup_radius: float = 1e-6
    sep_guard: float = 1e-3
    det_threshold: float = 1e-8

    def __post_init__(self):
        # the comparisons are False for nan, so each also rejects it
        checks = (
            ("grid", self.grid >= 4, ">= 4"),
            ("max_iters", self.max_iters >= 1, ">= 1"),
            ("tol_residual", 0 < self.tol_residual < np.inf, "finite and > 0"),
            ("dedup_radius", 0 < self.dedup_radius < np.inf, "finite and > 0"),
            ("sep_guard", 0 <= self.sep_guard < 1, "in [0, 1)"),
            ("det_threshold", 0 <= self.det_threshold < np.inf, "finite and >= 0"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Solution:
    """One labeled root in canonical cyclic form (smallest angle first)."""

    theta: np.ndarray
    config: Config4
    residual_norm: float
    jac_det: float
    transverse: bool
    min_separation: float


@dataclass(frozen=True)
class SolveReport:
    """Cyclic classes of inscribed square-like quadrilaterals on one curve."""

    classes: list
    parity: str  # "odd" | "even" | "withheld"
    all_transverse: bool
    degeneracy_flags: list = field(default_factory=list)

    @property
    def labeled_count(self) -> int:
        """Labeled roots: the four cyclic relabelings of each class."""
        return 4 * len(self.classes)


# ---------------------------------------------------------------------------
# residual and Jacobian


def _points_at(curve: Curve, thetas: np.ndarray) -> np.ndarray:
    """(m, 4) angles -> (m, 4, k) curve points."""
    m = thetas.shape[0]
    return curve.eval(thetas.reshape(-1)).reshape(m, 4, curve.dim)


def _tangents_at(curve: Curve, thetas: np.ndarray) -> np.ndarray:
    """(m, 4) angles -> (m, 4, k) curve tangents."""
    m = thetas.shape[0]
    return curve.deriv(thetas.reshape(-1)).reshape(m, 4, curve.dim)


def _pair_squares(pts: np.ndarray):
    """(m, 4, k) points -> (k, 6, m) pair differences and (6, m) squared lengths."""
    coords = np.ascontiguousarray(pts.T)
    diff = coords[:, _PAIR_I] - coords[:, _PAIR_J]
    return diff, (diff * diff).sum(0)


def _kernel(pts: np.ndarray, diameter: float, tan: np.ndarray | None = None):
    """Residual, sup-norms, min separation and (given tangents) Jacobian.

    ``pts`` and ``tan`` are (m, 4, k) points and tangents of a batch of angle
    tuples.  The six pair differences are formed once; each g_r = N_r / D_r
    is a ratio of linear combinations of their squared lengths, and its
    Jacobian row is (dN_r - g_r dD_r) / D_r, built from the same differences
    and the tangents.  The work runs batch-last, (k, 6, m), so every
    operation streams over whole rows of length m instead of the short
    k, 4 and 6 axes, and the Jacobian comes out batch-last too, (4, 4, m).
    Rows whose configuration is numerically degenerate get +inf norm instead
    of raising, so the damped line search can simply reject them.
    """
    diff, sq = _pair_squares(pts)
    min_sep = np.sqrt(sq.min(axis=0))
    nd = _NUM_DEN @ sq
    num, den = nd[:4], nd[4:]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = num / den
        res = g - G_TARGET[:, None]
        norms = np.abs(res).max(axis=0)
    ok = (min_sep > MACHINE_SEP * diameter) & np.isfinite(norms)
    norms = np.where(ok, norms, np.inf)
    if tan is None:
        return res.T, norms, min_sep, None
    tangents = np.ascontiguousarray(tan.T)[:, _PAIR_IJ]
    dots = (np.concatenate([diff, diff], axis=1) * tangents).sum(0)
    dnd = (_DOTS_TO_DNUM_DEN.T @ dots).reshape(8, 4, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = (dnd[:4] - g[:, None] * dnd[4:]) / den[:, None]
    return res.T, norms, min_sep, jac


def _single(curve: Curve, thetas, with_jacobian: bool):
    """Kernel outputs at one angle tuple; raises on coincident curve points."""
    th = np.asarray(thetas, dtype=float).reshape(1, 4)
    tan = _tangents_at(curve, th) if with_jacobian else None
    res, _, min_sep, jac = _kernel(_points_at(curve, th), curve.diameter, tan)
    if min_sep[0] <= MACHINE_SEP * curve.diameter:
        raise DegenerateConfiguration(
            f"curve points separated by {min_sep[0]:.3e}, below guard"
        )
    return res[0], None if jac is None else jac[..., 0]


def residual(curve: Curve, thetas) -> np.ndarray:
    """G(theta) = g(gamma(theta)) - (1, 1, 1, 0) for one angle 4-tuple."""
    return _single(curve, thetas, with_jacobian=False)[0]


def jacobian(curve: Curve, thetas) -> np.ndarray:
    """Analytic 4x4 derivative of ``residual`` in the four angles."""
    return _single(curve, thetas, with_jacobian=True)[1]


# ---------------------------------------------------------------------------
# seeds and Newton refinement


def seed_grid(n_per_axis: int) -> np.ndarray:
    """Ordered seed tuples from the uniform grid, first angle in [0, pi/2).

    Every cyclic class of distinct grid angles keeps at least its minimal
    rotation when the minimum lies below pi/2, which pre-quotients the cyclic
    relabeling approximately while Newton remains free to leave the region.
    """
    if n_per_axis < 4:
        raise ValueError("n_per_axis must be >= 4")
    values = TWO_PI * np.arange(n_per_axis) / n_per_axis
    combos = _combinations(n_per_axis)
    # row t of the (4, 4) index table rotates a combination to start at slot t
    rotations = combos[:, (np.arange(4)[:, None] + np.arange(4)) % 4]
    return values[rotations[values[combos] < np.pi / 2]]


def _combinations(n: int) -> np.ndarray:
    """(C(n, 4), 4) strictly increasing index tuples in lexicographic order."""
    return np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), 4)), dtype=np.intp
    ).reshape(-1, 4)


@functools.cache
def _index_tables(n: int):
    """Sorted index 4-tuples of n samples, their +-1 neighbours and pair rows.

    Row r of the (C(n, 4), 4) tuple table is the combination (a, b, c, d)
    of colex rank r = C(a, 1) + C(b, 2) + C(c, 3) + C(d, 4).  Row r of the
    (C(n, 4), 8) neighbour table holds the ranks of the tuples that move
    one index of row r by +1 or -1, or C(n, 4) where the move leaves the
    strictly increasing tuples of 0..n-1.  Row p of the (6, C(n, 4)) pair
    table holds i * n + j for pair p = (i, j) of each tuple.  All three are
    built once per n and returned read-only; no n^4 array is formed.
    """
    combos = _combinations(n)
    # binom[x, p] = C(x, p + 1), the rank term of index x in slot p
    binom = np.array([[math.comb(x, k) for k in range(1, 5)] for x in range(n + 1)], dtype=np.intp)
    slots = np.arange(4)
    count = len(combos)
    tuples = np.empty_like(combos)
    tuples[binom[combos, slots].sum(axis=1)] = combos
    rank = np.arange(count)[:, None] - binom[tuples, slots]
    # a moved index must stay strictly between its neighbours in the tuple
    below = np.hstack([np.full((count, 1), -1), tuples[:, :3]])
    above = np.hstack([tuples[:, 1:], np.full((count, 1), n)])
    neighbours = np.hstack(
        [
            np.where(tuples + 1 < above, rank + binom[tuples + 1, slots], count),
            np.where(tuples - 1 > below, rank + binom[tuples - 1, slots], count),
        ]
    )
    pair_rows = tuples[:, _PAIR_I].T * n + tuples[:, _PAIR_J].T
    for table in (tuples, neighbours, pair_rows):
        table.flags.writeable = False
    return tuples, neighbours, pair_rows


def _lattice_minima(sq: np.ndarray, threshold: float):
    """Discrete local minima of the residual sup-norm over sorted index 4-tuples.

    ``sq`` is an (n, n, b) stack of squared-distance tables, one per set of
    n curve samples, batch-last.  A tuple is a minimum when its norm is at
    most that of each of its +-1 neighbours in ``_index_tables``; a
    neighbour outside the strictly increasing tuples does not count.
    Returns the rows of the tuple table and the table indices of the minima
    with norm below ``threshold``.

    One pass: s01 / s03 - 1 is formed for every tuple, s12 / s01 - 1 where
    that is below the threshold, and the full norm once where both are.  A
    neighbour outside this prefilter reads +inf, exact as its norm is at
    least the threshold, above any candidate's.  A nan norm needs a pair
    distance that is 0 or not finite: every tuple of a table with one enters
    the prefilter, so a nan neighbour still blocks its candidate.
    """
    n = sq.shape[0]
    tuples, neighbours, pair_rows = _index_tables(n)
    table = sq.reshape(n * n, -1)
    width = table.shape[1]
    upper = sq[np.triu_indices(n, 1)]
    exact = ~np.all((upper > 0) & (upper < np.inf), axis=0)
    s01, s03 = table[pair_rows[:2]]
    with np.errstate(divide="ignore", invalid="ignore"):
        ids = np.flatnonzero((np.abs(s01 / s03 - G_TARGET[0]) < threshold) | exact)
        rows, cols = np.divmod(ids, width)
        near = np.abs(table[pair_rows[2, rows], cols] / s01.ravel()[ids] - G_TARGET[1])
        ids = ids[(near < threshold) | exact[cols]]
        rows, cols = np.divmod(ids, width)
        nd = _NUM_DEN @ table.ravel()[pair_rows[:, rows] * width + cols]
        values = np.abs(nd[:4] / nd[4:] - G_TARGET[:, None]).max(axis=0)
    below = values < threshold
    rows, cols = rows[below], cols[below]
    if not rows.size:
        return rows, cols
    # norms by (tuple, table); the last block stands for the neighbour C(n, 4)
    lookup = np.full((len(tuples) + 1) * width, np.inf)
    lookup[ids] = values
    keep = np.all(values[below, None] <= lookup[neighbours[rows] * width + cols[:, None]], axis=1)
    return rows[keep], cols[keep]


def _squared_distances(pts: np.ndarray) -> np.ndarray:
    """(n, ..., k) points -> (n, n, ...) table of their squared distances.

    The squares are summed one coordinate at a time, in coordinate order,
    so no (n, n, ..., k) difference array is formed.
    """
    return sum((x[:, None] - x[None, :]) ** 2 for x in np.moveaxis(pts, -1, 0))


def _scan_seeds(curve: Curve, n: int) -> np.ndarray:
    """Seeds at the residual's discrete minima on the n-lattice and on the windows.

    The lattice takes n equally spaced curve samples, and a second set of n
    offset from them by half a step: roots closer than a few lattice steps
    share one minimum on one set of samples and can fall to separate
    minima on the other.  Sorted index tuples cut the circle at the first
    sample: the tuples near a root whose vertices straddle the cut lie on
    both sides of it and are not neighbours, which can hide the root's
    minimum.  So each set is scanned twice, with the samples numbered from
    its first sample and from the one half way round.  Each of the
    ``WINDOW_ARCS`` windows samples one short arc, so that squares too
    small for the lattice to resolve still sit at a minimum of some
    window's tuples.  The four numberings are scanned in one batch of
    tables, and all the windows in another.
    """
    values = TWO_PI * (np.arange(n)[:, None] + np.array([0.0, 0.5])) / n
    numberings = np.hstack([values, np.roll(values, -(n // 2), axis=0)])
    rows, cols = _lattice_minima(_squared_distances(curve.eval(numberings)), LATTICE_SEED_NORM)
    angles = WINDOW_WIDTH * np.arange(WINDOW_SAMPLES)[:, None] / WINDOW_SAMPLES + (
        TWO_PI * np.arange(WINDOW_ARCS) / WINDOW_ARCS
    )
    arc_rows, arcs = _lattice_minima(_squared_distances(curve.eval(angles)), SEED_NORM)
    return np.vstack(
        [
            numberings[_index_tables(n)[0][rows], cols[:, None]],
            angles[_index_tables(WINDOW_SAMPLES)[0][arc_rows], arcs[:, None]],
        ]
    )


def canonical_theta(thetas) -> np.ndarray:
    """Reduce mod 2pi and rotate the tuple so the smallest angle comes first."""
    return _canonical_batch(np.asarray(thetas, dtype=float).reshape(1, 4))[0]


def _canonical_batch(thetas: np.ndarray) -> np.ndarray:
    """Rows of an (m, 4) array reduced mod 2pi and rotated to start at their
    smallest angle (the first of equal smallest ones)."""
    th = np.mod(np.asarray(thetas, dtype=float).reshape(-1, 4), TWO_PI)
    rows = np.arange(th.shape[0])
    start = np.argmin(th, axis=1)
    return np.stack([th[rows, (start + s) % 4] for s in range(4)], axis=1)


def class_distance(t1, t2) -> float:
    """Sup metric on angle tuples up to cyclic relabeling, circular per angle."""
    a, b = (np.mod(np.asarray(t, dtype=float).reshape(1, 4), TWO_PI) for t in (t1, t2))
    return float(_class_distances(a, b)[0, 0])


def _newton_batch(curve: Curve, seeds: np.ndarray, opts: SolverOptions):
    """Damped Newton on all seeds at once.

    Returns (thetas, residual sup-norms, status array, singular-fallback flags).
    The step comes from ``_newton_step``; damping takes the fraction 2^-k
    of it for the smallest k <= 10 that decreases the residual norm.  The
    full step is tried first, in one kernel call for every row; the rows it
    does not improve try all ten halvings in one more call, and a row takes
    the smallest k that decreases its norm: the k that halving one fraction
    at a time accepts.  A seed stops when it converges, when no fraction
    decreases the residual, or when its iterate leaves the ordered
    component, which gives it ``_STATUS_LEFT_ORDERED``.
    A seed whose residual is not finite (coincident or non-finite points)
    has no Jacobian to step with and never starts.
    A seed is flagged once any of its Jacobians fails the determinant
    regularity test.
    """
    with np.errstate(invalid="ignore"):
        thetas = np.mod(np.array(seeds, dtype=float), TWO_PI)
    pts = _points_at(curve, thetas)
    res, norms, _, _ = _kernel(pts, curve.diameter)
    converged = norms < opts.tol_residual
    active = np.isfinite(norms)
    used_singular = np.zeros(len(thetas), dtype=bool)
    for _ in range(opts.max_iters):
        idx = np.flatnonzero(active & ~converged)
        if not idx.size:
            break
        _, _, _, jac = _kernel(pts[idx], curve.diameter, _tangents_at(curve, thetas[idx]))
        step, regular = _newton_step(jac, res[idx].T)
        used_singular[idx[~regular]] = True
        trial = np.mod(thetas[idx] + step, TWO_PI)
        trial_pts = _points_at(curve, trial)
        trial_res, trial_norm, _, _ = _kernel(trial_pts, curve.diameter)
        tried = (trial, trial_pts, trial_res, trial_norm)
        hit = trial_norm < norms[idx]
        miss = np.flatnonzero(~hit)
        if miss.size:
            rows = idx[miss]
            halved = np.mod(thetas[rows] + _HALVINGS * step[miss], TWO_PI).reshape(-1, 4)
            halved_pts = _points_at(curve, halved)
            halved_res, halved_norm, _, _ = _kernel(halved_pts, curve.diameter)
            better = halved_norm.reshape(len(_HALVINGS), -1) < norms[rows]
            found = better.any(axis=0)
            pick = better.argmax(axis=0)[found] * len(rows) + np.flatnonzero(found)
            for mine, theirs in zip(tried, (halved, halved_pts, halved_res, halved_norm)):
                mine[miss[found]] = theirs[pick]
            hit[miss[found]] = True
        moved = idx[hit]
        for mine, theirs in zip((thetas, pts, res, norms), tried):
            mine[moved] = theirs[hit]
        converged[moved] = norms[moved] < opts.tol_residual
        # roots off the ordered component are discarded, so a seed that leaves it stops
        active[idx] = False
        active[moved] = _ordered_batch(thetas[moved])

    min_sep = np.sqrt(_pair_squares(pts)[1].min(axis=0))
    status = np.where(converged, _STATUS_CONVERGED, _STATUS_DIVERGED).astype(np.int8)
    status[converged & (min_sep / curve.diameter <= opts.sep_guard)] = _STATUS_NEAR_BOUNDARY
    status[~_ordered_batch(thetas)] = _STATUS_LEFT_ORDERED
    return thetas, norms, status, used_singular


def _newton_step(jac: np.ndarray, res: np.ndarray):
    """Newton steps -J^-1 r for a batch-last (4, 4, m) Jacobian and (4, m) residual.

    Returns the (m, 4) steps and the mask of rows that pass the regularity
    test |det| > 1e-10 max|J_ij|^4.  Regular rows take LAPACK's LU solve,
    in one call on the whole stack when every row is regular; every other
    row takes the minimum-norm (Gauss-Newton) step -pinv(J, rcond=1e-10) r.
    """
    mats = jac.transpose(2, 0, 1)
    rhs = -res.T[..., None]
    det = np.linalg.det(mats)
    regular = np.abs(det) > 1e-10 * np.abs(mats).max(axis=(1, 2)) ** 4
    if regular.all():
        return np.linalg.solve(mats, rhs)[..., 0], regular
    step = np.empty_like(rhs)
    step[regular] = np.linalg.solve(mats[regular], rhs[regular])
    step[~regular] = np.linalg.pinv(mats[~regular], rcond=1e-10) @ rhs[~regular]
    return step[..., 0], regular


def _certify(jac: np.ndarray, opts: SolverOptions):
    """Determinants and scale-relative transversality verdicts of a batch-last
    (4, 4, m) Jacobian stack.

    A row is transverse when no Jacobian row norm falls to ``ROW_FLOOR``
    times the largest and |det| exceeds ``opts.det_threshold`` times the
    product of the row norms.
    """
    det = np.linalg.det(jac.transpose(2, 0, 1))
    rows = np.linalg.norm(jac, axis=1)
    top = rows.max(axis=0)
    scaled = (top > 0.0) & (rows.min(axis=0) > ROW_FLOOR * top)
    return det, scaled & (np.abs(det) > opts.det_threshold * np.prod(rows, axis=0))


def _make_solutions(curve: Curve, thetas: np.ndarray, opts: SolverOptions) -> list:
    """Certified ``Solution``s of (m, 4) roots, in canonical form, in one batch."""
    th = _canonical_batch(thetas)
    pts = _points_at(curve, th)
    _, norms, min_sep, jac = _kernel(pts, curve.diameter, _tangents_at(curve, th))
    det, transverse = _certify(jac, opts)
    return [
        Solution(
            theta=th[i],
            config=Config4(pts[i]),
            residual_norm=float(norms[i]),
            jac_det=float(det[i]),
            transverse=bool(transverse[i]),
            min_separation=float(min_sep[i] / curve.diameter),
        )
        for i in range(len(th))
    ]


def newton_refine(curve: Curve, theta0, opts: SolverOptions | None = None) -> Solution:
    """Refine one seed; raises a typed error instead of returning junk."""
    opts = opts or SolverOptions()
    th0 = np.asarray(theta0, dtype=float).reshape(4)
    if not ordered_component_check(th0):
        raise ValueError("seed must lie in the ordered component")
    thetas, norms, status, singular = _newton_batch(curve, th0[None, :], opts)
    st = int(status[0])
    if st == _STATUS_CONVERGED:
        return _make_solutions(curve, thetas[:1], opts)[0]
    if st == _STATUS_LEFT_ORDERED:
        raise LeftOrderedComponent(f"left the ordered component at angles {thetas[0]}")
    if st == _STATUS_NEAR_BOUNDARY:
        raise NearBoundary(
            "converged configuration violates the minimum-separation guard"
        )
    if bool(singular[0]):
        raise SingularJacobianDuringIteration(
            f"stalled at |G| = {norms[0]:.3e} despite pseudo-inverse steps"
        )
    raise Divergence(f"no convergence from seed {th0}, final |G| = {norms[0]:.3e}")


# ---------------------------------------------------------------------------
# cyclic quotient dedup


def _class_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) matrix of ``class_distance`` between reduced (n, 4) and (m, 4) tuples.

    The four cyclic shifts of ``b`` are compared with ``a`` at once: the
    largest circular angle difference of each shift, minimised over the
    shifts.
    """
    diff = np.abs(a[:, None, None, :] - b[:, _CYCLIC_SHIFTS]) % TWO_PI
    return np.minimum(diff, TWO_PI - diff).max(axis=-1).min(axis=-1)


def _linked(a: np.ndarray, b: np.ndarray, radius: float):
    """Index pairs (i, j) with ``class_distance(a[i], b[j]) <= radius``.

    The distance matrix is built ``_DISTANCE_BLOCK_ROWS`` rows of ``a`` at a
    time, so memory stays linear in ``len(b)``.
    """
    pairs = [np.empty((2, 0), dtype=np.intp)]
    for lo in range(0, len(a), _DISTANCE_BLOCK_ROWS):
        near = _class_distances(a[lo : lo + _DISTANCE_BLOCK_ROWS], b) <= radius
        i, j = np.nonzero(near)
        pairs.append(np.stack([i + lo, j]))
    return np.concatenate(pairs, axis=1)


def _cluster_labels(canon: np.ndarray, radius: float) -> np.ndarray:
    """Single-linkage class labels of canonical (n, 4) tuples under ``class_distance``.

    Tuples are first collapsed into quantization buckets of width radius/4
    (identical roots found from many seeds land in the same bucket), each
    owned by its first tuple.  Owners within ``radius`` of each other are
    linked, and each owner takes the smallest owner index of its connected
    component (``_component_labels``).
    """
    keys = (canon / (radius / 4.0)).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    owners = canon[first]
    src, dst = _linked(owners, owners, radius)
    return _component_labels(len(owners), src, dst)[inverse.reshape(-1)]


def _representatives(canon: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Index of the lexicographically smallest tuple of each class.

    Among equal tuples the first index wins, as ``np.lexsort`` is stable.
    """
    order = np.lexsort((*canon.T[::-1], labels))
    first = np.ones(len(order), dtype=bool)
    first[1:] = labels[order[1:]] != labels[order[:-1]]
    return order[first]


def quotient_dedup(solutions: list, radius: float = 1e-6) -> list:
    """One canonical representative per cyclic class.

    Clusters are single-linkage in the cyclic-quotient sup metric on angles;
    the representative is the lexicographically smallest canonical tuple, and
    the result is sorted lexicographically for determinism.
    """
    # the comparisons are False for nan, as in ``SolverOptions``
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    if not solutions:
        return []
    canon = _canonical_batch(np.array([s.theta for s in solutions]))
    reps = []
    for best in _representatives(canon, _cluster_labels(canon, radius)):
        sol = solutions[best]
        if not np.array_equal(sol.theta, canon[best]):
            sol = replace(sol, theta=canon[best])
        reps.append(sol)
    reps.sort(key=lambda s: tuple(s.theta))
    return reps


# ---------------------------------------------------------------------------
# full search


def find_all(
    curve: Curve,
    opts: SolverOptions | None = None,
    extra_seeds=None,
) -> SolveReport:
    """Search the lattice and window minima and report cyclic classes with parity.

    Newton starts from the discrete residual minima of ``_scan_seeds`` on
    the ``opts.grid``-sample lattice and the short-arc windows.
    ``extra_seeds`` augments them (continuation feeds the previous step's
    solutions through here).  The report never raises on degeneracy; it
    carries flags instead.
    """
    opts = opts or SolverOptions()
    seeds = _scan_seeds(curve, opts.grid)
    if extra_seeds is not None:
        extra = np.asarray(extra_seeds, dtype=float).reshape(-1, 4)
        if extra.size:
            seeds = np.vstack([seeds, extra])
    thetas, norms, status, _ = _newton_batch(curve, seeds, opts)

    flags = []
    if np.any(status == _STATUS_NEAR_BOUNDARY):
        flags.append("NearBoundary")

    canon = _canonical_batch(thetas[status == _STATUS_CONVERGED])
    labels = _cluster_labels(canon, opts.dedup_radius)
    classes = _make_solutions(curve, canon[_representatives(canon, labels)], opts)
    classes.sort(key=lambda s: tuple(s.theta))

    all_transverse = all(s.transverse for s in classes)
    if not all_transverse:
        flags.append("NonTransverse")
    if _continuum_suspected(classes, opts):
        flags.append("ContinuumSuspected")
    parity = (
        ("odd" if len(classes) % 2 == 1 else "even") if all_transverse else "withheld"
    )
    return SolveReport(
        classes=classes,
        parity=parity,
        all_transverse=all_transverse,
        degeneracy_flags=flags,
    )


def _continuum_suspected(classes: list, opts: SolverOptions) -> bool:
    """Two non-transverse classes closer than 1000x the dedup radius."""
    suspects = np.mod([s.theta for s in classes if not s.transverse], TWO_PI).reshape(-1, 4)
    i, j = _linked(suspects, suspects, 1e3 * opts.dedup_radius)
    return bool(np.any(i != j))
