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

from .config import (
    G_TARGET,
    TWO_PI,
    Config4,
    _as_count,
    _component_labels,
    _ordered_batch,
    _ordered_rows,
    ordered_component_check,
)
from .curve import Curve, _harmonic_table
from .errors import (
    DegenerateConfiguration,
    Divergence,
    LeftOrderedComponent,
    NearBoundary,
    SingularJacobianDuringIteration,
)

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

#: Newton step fractions 2^-k, k = 1..10, tried by the rows that the full step
#: does not improve; shaped to broadcast against (rows, 4) steps
_HALVINGS = np.ldexp(1.0, -np.arange(1, 11))[:, None, None]

#: above this many rows missing the full step, a line search tries k = 1..3
#: first and k = 4..10 only for the rows none of those improved
_SPLIT_ROWS = 64

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

#: largest lattice size: the scan's memory grows as C(grid, 4), about 1.1 GB at 96
MAX_GRID = 96

#: smallest class radius.  Converged copies of one root can lie more than
#: 1e-13 apart: the reference curves' classes split at a radius of 1e-13 and
#: hold from 1e-12 up; the floor keeps a factor of 100 over that.  (Below
#: about 2.7e-18 the int64 keys of ``_cluster_labels`` overflow and merge.)
DEDUP_FLOOR = 1e-10

#: steps of ``continuation.track`` by default, and of the CLI's ``track``
TRACK_STEPS = 64

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
        for name in ("grid", "max_iters"):
            # a numpy integer is stored as an int, which the JSON report can hold
            object.__setattr__(self, name, _as_count(name, getattr(self, name)))
        # the comparisons are False for nan, so each also rejects it
        checks = (
            ("grid", 4 <= self.grid <= MAX_GRID, f"in [4, {MAX_GRID}]"),
            ("max_iters", self.max_iters >= 1, ">= 1"),
            ("tol_residual", 0 < self.tol_residual < np.inf, "finite and > 0"),
            (
                "dedup_radius",
                DEDUP_FLOOR <= self.dedup_radius < np.inf,
                f"finite and >= {DEDUP_FLOOR:g}",
            ),
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
    degeneracy_flags: list = field(default_factory=list)

    @property
    def parity(self) -> str:
        """The class count mod 2, "odd" or "even"; "withheld" under any flag."""
        if self.degeneracy_flags:
            return "withheld"
        return "odd" if len(self.classes) % 2 == 1 else "even"

    @property
    def all_transverse(self) -> bool:
        return all(s.transverse for s in self.classes)

    @property
    def labeled_count(self) -> int:
        """Labeled roots: the four cyclic relabelings of each class."""
        return 4 * len(self.classes)


# ---------------------------------------------------------------------------
# residual and Jacobian: ``Curve.eval`` and ``Curve.deriv`` take (m, 4) angles
# to the (m, 4, k) points and tangents that the kernels read


def _pair_squares(pts: np.ndarray):
    """(m, 4, k) points -> (k, 6, m) pair differences and (6, m) squared lengths."""
    coords = np.ascontiguousarray(pts.T)
    # np.take: a fancy index gathers these short axes slower
    diff = np.take(coords, _PAIR_I, axis=1) - np.take(coords, _PAIR_J, axis=1)
    return diff, (diff * diff).sum(0)


def _residual_kernel(pts: np.ndarray, diameter: float):
    """Residuals, sup-norms and min separations of (m, 4, k) points.

    The six pair differences are formed once; each g_r = N_r / D_r is a
    ratio of linear combinations of their squared lengths.  The work runs
    batch-last, (k, 6, m), so every operation streams over whole rows of
    length m instead of the short k, 4 and 6 axes.  Rows whose
    configuration is numerically degenerate get +inf norm instead of
    raising, so the damped line search can simply reject them.  Their 0/0
    and x/0 warn unless the caller ignores them: the kernel runs under its
    caller's error state, which ``_newton_batch`` enters once per batch.
    """
    _, sq = _pair_squares(pts)
    min_sep = np.sqrt(sq.min(axis=0))
    nd = _NUM_DEN @ sq
    res = nd[:4] / nd[4:] - G_TARGET[:, None]
    norms = np.abs(res).max(axis=0)
    ok = (min_sep > MACHINE_SEP * diameter) & np.isfinite(norms)
    return res.T, np.where(ok, norms, np.inf), min_sep


def _jacobian_kernel(pts: np.ndarray, tan: np.ndarray) -> np.ndarray:
    """Batch-last (4, 4, m) residual Jacobians at (m, 4, k) points with tangents
    ``tan``: row r is (dN_r - g_r dD_r) / D_r, from the pair differences.
    Jacobians alone: a Newton iteration already holds the residual.  Like
    ``_residual_kernel``, it runs under its caller's error state."""
    diff, sq = _pair_squares(pts)
    nd = _NUM_DEN @ sq
    tangents = np.take(np.ascontiguousarray(tan.T), _PAIR_IJ, axis=1)
    dots = (np.concatenate([diff, diff], axis=1) * tangents).sum(0)
    dnd = (_DOTS_TO_DNUM_DEN.T @ dots).reshape(8, 4, -1)
    g = nd[:4] / nd[4:]
    return (dnd[:4] - g[:, None] * dnd[4:]) / nd[4:, None]


def _checked(curve: Curve, thetas):
    """(1, 4) angles, points and residual of one tuple; raises on coincident points."""
    th = np.asarray(thetas, dtype=float).reshape(1, 4)
    pts = curve.eval(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        res, _, min_sep = _residual_kernel(pts, curve.diameter)
    if min_sep[0] <= MACHINE_SEP * curve.diameter:
        raise DegenerateConfiguration(
            f"curve points separated by {min_sep[0]:.3e}, below guard"
        )
    return th, pts, res[0]


def residual(curve: Curve, thetas) -> np.ndarray:
    """G(theta) = g(gamma(theta)) - (1, 1, 1, 0) for one angle 4-tuple."""
    return _checked(curve, thetas)[2]


def jacobian(curve: Curve, thetas) -> np.ndarray:
    """Analytic 4x4 derivative of ``residual`` in the four angles."""
    th, pts, _ = _checked(curve, thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _jacobian_kernel(pts, curve.deriv(th))[..., 0]


# ---------------------------------------------------------------------------
# seeds and Newton refinement


def seed_grid(n_per_axis: int) -> np.ndarray:
    """Ordered seed tuples from the uniform grid, first angle in [0, pi/2).

    Every cyclic class of distinct grid angles keeps at least its minimal
    rotation when the minimum lies below pi/2, which pre-quotients the cyclic
    relabeling approximately while Newton remains free to leave the region.
    """
    n_per_axis = _as_count("n_per_axis", n_per_axis, minimum=4)
    values = TWO_PI * np.arange(n_per_axis) / n_per_axis
    combos = _combinations(n_per_axis)
    # row t of the (4, 4) index table rotates a combination to start at slot t
    rotations = combos[:, (np.arange(4)[:, None] + np.arange(4)) % 4]
    return values[rotations[values[combos] < np.pi / 2]]


def _combinations(n: int, k: int = 4) -> np.ndarray:
    """(C(n, k), k) strictly increasing index tuples in lexicographic order."""
    return np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), k)), dtype=np.intp
    ).reshape(-1, k)


@functools.cache
def _index_tables(n: int):
    """Sorted index 4-tuples of n samples, their +-1 neighbours and triples.

    Row r of the (C(n, 4), 4) tuple table is the combination (a, b, c, d)
    of colex rank r = C(a, 1) + C(b, 2) + C(c, 3) + C(d, 4).  Row r of the
    (C(n, 4), 8) neighbour table holds the ranks of the tuples that move
    one index of row r by +1 or -1, or C(n, 4) where the move leaves the
    strictly increasing tuples of 0..n-1.  Column r of the (3, C(n, 4))
    triple table holds the colex ranks of (a, b, d), (a, b, c) and
    (b, c, d); column t of the (3, C(n, 3)) triple pair table holds
    x * n + y, x * n + z and y * n + z for the triple (x, y, z) of rank t,
    and the last table i * n + j for each pair i < j.  All are built once
    per n and returned read-only; no n^4 array is formed.

    Everything is in closed form.  The size-k tuples in colex order are,
    for each top index d in turn, the C(d, k - 1) size-(k - 1) tuples below
    d (the first ones in their colex order) with d appended.  Index x in
    slot p (from 0) adds C(x, p + 1) to the rank, so moving it to x + 1
    adds C(x, p) and moving it to x - 1 subtracts C(x - 1, p) (Pascal's
    rule), and a triple's rank is a sum of three binomial columns.
    """
    # comb[x, p] = C(x, p) for x <= n and p <= 4
    comb = np.array([[math.comb(x, p) for p in range(5)] for x in range(n + 1)], dtype=np.intp)
    tuples = np.arange(n)[:, None]
    for k in (2, 3, 4):
        counts = comb[:n, k - 1]
        ends = np.cumsum(counts)
        prefix = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        tuples = np.hstack([tuples[prefix], np.repeat(np.arange(n), counts)[:, None]])
        if k == 3:
            triples = tuples
    count = len(tuples)
    rank = np.arange(count)[:, None]
    # a moved index must stay strictly between its neighbours in the tuple
    below = np.hstack([np.full((count, 1), -1), tuples[:, :3]])
    above = np.hstack([tuples[:, 1:], np.full((count, 1), n)])
    # flat[5 x + p] = C(x, p); a -1 move from x = 0 reads a clipped, unused entry
    flat, slots = comb.ravel(), np.arange(4)
    up = rank + flat.take(tuples * 5 + slots)
    down = rank - flat.take((tuples - 1) * 5 + slots, mode="clip")
    neighbours = np.hstack(
        [np.where(tuples + 1 < above, up, count), np.where(tuples - 1 > below, down, count)]
    )
    a, b, c, d = tuples.T
    b2, c3, d3 = comb[:, 2].take(b), comb[:, 3].take(c), comb[:, 3].take(d)
    triple_ranks = np.stack([a + b2 + d3, a + b2 + c3, b + comb[:, 2].take(c) + d3])
    triple_pairs = triples[:, [0, 0, 1]].T * n + triples[:, [1, 2, 2]].T
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    tables = tuples, neighbours, triple_ranks, triple_pairs, upper
    for table in tables:
        table.flags.writeable = False
    return tables


def _lattice_minima(sq: np.ndarray, threshold: float):
    """Discrete local minima of the residual sup-norm over sorted index 4-tuples.

    ``sq`` is an (n, n, b) stack of squared-distance tables, one per set of
    n curve samples, batch-last.  A tuple is a minimum when its norm is at
    most that of each of its +-1 neighbours in ``_index_tables``; a
    neighbour outside the strictly increasing tuples does not count.
    Returns the rows of the tuple table and the table indices of the minima
    with norm below ``threshold``.

    g0 = s01 / s03 reads only the triple (a, b, d) of the tuple (a, b, c, d),
    g1 = s12 / s01 only (a, b, c) and g2 = s23 / s12 only (b, c, d).  So the
    tests |g - 1| < threshold run once per sorted sample triple (x, y, z),
    as s_xy / s_xz and s_yz / s_xy, and a tuple takes its full norm only
    where its three triples pass, from the squared distances gathered for
    them (no per-tuple gather from the table).  A neighbour dropped here
    reads +inf, exact as its norm is at least the threshold, above any
    candidate's.  A nan norm needs a pair distance
    that is 0 or not finite: every tuple of a table with one takes its full
    norm, so a nan neighbour still blocks.
    """
    n = sq.shape[0]
    _, neighbours, triple_ranks, triple_pairs, upper = _index_tables(n)
    table = sq.reshape(n * n, -1)
    width = table.shape[1]
    dists = np.take(table, upper, axis=0)
    exact = ~np.all((dists > 0) & (dists < np.inf), axis=0)
    sxy, sxz, syz = np.take(table, triple_pairs, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        g0_ok = np.abs(sxy / sxz - G_TARGET[0]) < threshold
        g12_ok = np.abs(syz / sxy - G_TARGET[1]) < threshold
        # np.take: a fancy index gathers these short rows several times slower
        passed = np.take(g0_ok, triple_ranks[0], axis=0)
        passed &= np.take(g12_ok, triple_ranks[1], axis=0)
        passed &= np.take(g12_ok, triple_ranks[2], axis=0)
        passed[:, exact] = True
        rows, cols = np.divmod(np.flatnonzero(passed), width)
        # a tuple's six squared distances are the xy, xz and yz of its triples
        # (a, b, d), (a, b, c) and (b, c, d): s01 is xy of (a, b, c), s13 xz of (b, c, d)
        abd, abc, bcd = np.take(triple_ranks, rows, axis=1) * width + cols
        s01 = sxy.take(abc)
        num = (sxy.take(abd), syz.take(abc), syz.take(bcd), sxz.take(abc) - sxz.take(bcd))
        den = (sxz.take(abd), s01, sxy.take(bcd), s01)
        values = np.abs(np.divide(num, den) - G_TARGET[:, None]).max(axis=0)
    below = values < threshold
    # norms by (tuple, slot): a slot per table that holds a candidate, slot 0
    # for the others, unread; the last block stands for the neighbour C(n, 4)
    present = np.bincount(cols[below], minlength=width) > 0
    slot = np.where(present, np.cumsum(present), 0)
    stride = slot.max() + 1
    lookup = np.full((len(neighbours) + 1) * stride, np.inf)
    lookup[rows * stride + slot[cols]] = values
    rows, cols = rows[below], cols[below]
    near = lookup[np.take(neighbours, rows, axis=0) * stride + slot[cols][:, None]]
    keep = np.all(values[below, None] <= near, axis=1)
    return rows[keep], cols[keep]


def _squared_distances(pts: np.ndarray) -> np.ndarray:
    """(n, ..., k) points -> (n, n, ...) table of their squared distances.

    The squares are summed one coordinate at a time, in coordinate order,
    each from a contiguous row and in place, so no (n, n, ..., k) difference
    array is formed.
    """
    total = None
    for x in np.ascontiguousarray(np.moveaxis(pts, -1, 0)):
        diff = x[:, None] - x[None, :]
        diff *= diff
        total = diff if total is None else np.add(total, diff, out=total)
    return total


@functools.lru_cache(maxsize=8)
def _scan_tables(n: int, harmonics: int):
    """The scan's angles and their harmonic tables, read-only, per (n, H).

    Returns the (n, 4) lattice numberings, the cos and sin tables of their
    angles (``_harmonic_table``), the (14, 128) window angles and their cos
    and sin tables: what ``Curve.eval`` would build on every solve, so a
    curve's points are its coefficients times these tables, bit for bit.
    Keyed on the lattice size and the harmonic count, the only inputs they
    depend on.  Eight entries hold the five harmonic counts of the
    reference and seeded curves at one lattice size, or the one count of a
    ``track`` path at several; an entry takes (4n + 1,792) H 16 bytes,
    7.7 MB at n = 24 and ``MAX_HARMONICS``.  Every later solve with the
    same key reads the same arrays, so they are read-only.
    """
    values = TWO_PI * (np.arange(n)[:, None] + np.array([0.0, 0.5])) / n
    numberings = np.hstack([values, np.roll(values, -(n // 2), axis=0)])
    angles = WINDOW_WIDTH * np.arange(WINDOW_SAMPLES)[:, None] / WINDOW_SAMPLES + (
        TWO_PI * np.arange(WINDOW_ARCS) / WINDOW_ARCS
    )
    tables = (
        numberings,
        *_harmonic_table(numberings, harmonics),
        angles,
        *_harmonic_table(angles, harmonics),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


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
    tables, and all the windows in another; their points come from the
    cached ``_scan_tables``.
    """
    numberings, c, s, angles, arc_c, arc_s = _scan_tables(n, curve.harmonics)
    pts = curve._points(c, s).reshape(numberings.shape + (curve.dim,))
    rows, cols = _lattice_minima(_squared_distances(pts), LATTICE_SEED_NORM)
    arc_pts = curve._points(arc_c, arc_s).reshape(angles.shape + (curve.dim,))
    arc_rows, arcs = _lattice_minima(_squared_distances(arc_pts), SEED_NORM)
    lattice_seeds = numberings[_index_tables(n)[0][rows], cols[:, None]]
    window_seeds = angles[_index_tables(WINDOW_SAMPLES)[0][arc_rows], arcs[:, None]]
    return np.vstack([lattice_seeds, window_seeds])


def canonical_theta(thetas) -> np.ndarray:
    """Reduce into [0, 2pi) and rotate the tuple so the smallest angle comes first."""
    return _canonical_batch(np.asarray(thetas, dtype=float).reshape(1, 4))[0]


def _canonical_batch(thetas: np.ndarray) -> np.ndarray:
    """Rows of an (m, 4) array reduced into [0, 2pi) and rotated to start at
    their smallest angle (the first of equal smallest ones)."""
    th = np.mod(np.asarray(thetas, dtype=float).reshape(-1, 4), TWO_PI)
    th[th == TWO_PI] = 0.0  # np.mod rounds an angle in (-1e-16, 0) up to 2pi
    start = np.argmin(th, axis=1)[:, None]
    return np.take_along_axis(th, (start + np.arange(4)) % 4, axis=1)


def class_distance(t1, t2) -> float:
    """Sup metric on angle tuples up to cyclic relabeling, circular per angle."""
    a, b = (np.mod(np.asarray(t, dtype=float).reshape(1, 4), TWO_PI) for t in (t1, t2))
    return float(_class_distances(a, b)[0, 0])


def _state_rows(curve: Curve, thetas: np.ndarray) -> np.ndarray:
    """(m, 9 + 4k) state rows at (m, 4) angles: the angles, the (4, k)
    points row-major, the residual and its sup-norm (``_newton_batch``)."""
    pts = curve.eval(thetas)
    res, norms, _ = _residual_kernel(pts, curve.diameter)
    return np.concatenate([thetas, pts.reshape(len(thetas), -1), res, norms[:, None]], axis=1)


def _newton_batch(curve: Curve, seeds: np.ndarray, opts: SolverOptions):
    """Damped Newton on all seeds at once.

    Returns (thetas, residual sup-norms, status array, singular-fallback flags).
    The step comes from ``_newton_step``; damping takes the fraction 2^-k
    of it for the smallest k <= 10 that decreases the residual norm.  The
    full step is tried first, in one residual call for every row.  The rows
    it does not improve try the halvings in one more call, or, when more
    than ``_SPLIT_ROWS`` of them miss, in two: k = 1..3 for all of them,
    then k = 4..10 for the rows that none of k = 1..3 improved.  Either way
    a row takes the smallest k that decreases its norm, the k that halving
    one fraction at a time accepts, so the split changes no iterate.  Most
    rows that miss the full step take k <= 3, so the split spares the
    evaluation of their seven other fractions; it costs one more call, about
    50 us of fixed overhead against about 1.4 us saved per row, which breaks
    even at 35-60 rows: 64 leaves the small batches of ``track`` unsplit.
    A seed stops when it converges, when no fraction
    decreases the residual, or when its iterate leaves the ordered
    component, which gives it ``_STATUS_LEFT_ORDERED``.
    A seed whose residual is not finite (coincident or non-finite points)
    has no Jacobian to step with and never starts.
    A seed is flagged once any of its Jacobians fails the determinant
    regularity test.

    Each seed's state is one row of a float array private to the batch
    (``_state_rows``), so an iteration gathers its live rows in one call
    and each block of steps stores the rows it accepts in one assignment.
    The layout changes no bit: rows are copied value for value, and the
    kernels and ``Curve.deriv`` copy what they read into contiguous arrays
    before any arithmetic.  The batch runs under one error state that
    ignores the kernels' 0/0 and x/0 on degenerate rows.
    """
    k = curve.dim
    # the state columns of the points and of the residual
    pts_cols, res_cols = slice(4, 4 + 4 * k), slice(4 + 4 * k, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        state = _state_rows(curve, np.mod(np.array(seeds, dtype=float), TWO_PI))
        # seeds still iterating: finite and not converged (norms are never nan)
        live = np.isfinite(state[:, -1]) & (state[:, -1] >= opts.tol_residual)
        used_singular = np.zeros(len(state), dtype=bool)
        for _ in range(opts.max_iters):
            idx = np.flatnonzero(live)
            if not idx.size:
                break
            rows = state.take(idx, axis=0)
            th, norms = rows[:, :4], rows[:, -1]
            jac = _jacobian_kernel(rows[:, pts_cols].reshape(-1, 4, k), curve.deriv(th))
            step, regular = _newton_step(jac, rows[:, res_cols].T)
            used_singular[idx[~regular]] = True
            trial = _state_rows(curve, np.mod(th + step, TWO_PI))
            hit = trial[:, -1] < norms
            miss = np.flatnonzero(~hit)
            moved = idx[hit]
            state[moved] = trial[hit]
            live[idx] = False
            blocks = (_HALVINGS,) if miss.size <= _SPLIT_ROWS else (_HALVINGS[:3], _HALVINGS[3:])
            for fractions in blocks:
                if not miss.size:
                    break
                halved = np.mod(th[miss] + fractions * step[miss], TWO_PI).reshape(-1, 4)
                halved = _state_rows(curve, halved)
                better = halved[:, -1].reshape(len(fractions), -1) < norms[miss]
                found = better.any(axis=0)
                pick = better.argmax(axis=0)[found] * len(miss) + np.flatnonzero(found)
                won = idx[miss[found]]
                state[won] = halved[pick]
                moved = np.concatenate([moved, won])
                miss = miss[~found]
            # roots off the ordered component are discarded, so a seed that leaves
            # it stops.  A moved row's angles are reduced, and its finite norm
            # keeps them distinct mod 2pi, as ``_ordered_rows`` needs
            after = state.take(moved, axis=0)
            live[moved] = (after[:, -1] >= opts.tol_residual) & _ordered_rows(after[:, :4])

    thetas, norms = state[:, :4].copy(), state[:, -1].copy()
    converged = norms < opts.tol_residual
    min_sep = np.sqrt(_pair_squares(state[:, pts_cols].reshape(-1, 4, k))[1].min(axis=0))
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
    regular = np.abs(det) > 1e-10 * np.abs(jac).reshape(16, -1).max(axis=0) ** 4
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


def _make_solutions(curve: Curve, th: np.ndarray, opts: SolverOptions) -> list:
    """Certified ``Solution``s of (m, 4) canonical roots, in one batch."""
    pts = curve.eval(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, norms, min_sep = _residual_kernel(pts, curve.diameter)
        jac = _jacobian_kernel(pts, curve.deriv(th))
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
        return _make_solutions(curve, _canonical_batch(thetas[:1]), opts)[0]
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
    owned by its first tuple: a stable ``np.lexsort`` of the bucket keys
    puts each bucket in one run, led by its first tuple.  Owners within
    ``radius`` of each other are linked, and each owner takes the smallest
    owner index of its connected component (``_component_labels``).
    """
    keys = (canon / (radius / 4.0)).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    owners = canon[order[starts]]
    src, dst = _linked(owners, owners, radius)
    bucket = np.empty(len(keys), dtype=np.intp)
    bucket[order] = np.cumsum(starts) - 1
    return _component_labels(len(owners), src, dst)[bucket]


def _representatives(canon: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Index of the lexicographically smallest tuple of each class, in lexicographic order.

    Among equal tuples the first index wins: ``np.lexsort`` is stable, and
    ``np.unique`` returns the first occurrence of each label.
    """
    order = np.lexsort(canon.T[::-1])
    _, first = np.unique(labels[order], return_index=True)
    return order[np.sort(first)]


def quotient_dedup(solutions: list, radius: float = SolverOptions.dedup_radius) -> list:
    """One canonical representative per cyclic class.

    Clusters are single-linkage in the cyclic-quotient sup metric on angles;
    the representative is the lexicographically smallest canonical tuple, and
    the result is sorted lexicographically for determinism.  ``radius`` is a
    ``SolverOptions.dedup_radius``: its default, and its rule, which raises
    ``ValueError`` naming ``dedup_radius``.
    """
    SolverOptions(dedup_radius=radius)
    if not solutions:
        return []
    canon = _canonical_batch(np.array([s.theta for s in solutions]))
    reps = []
    for best in _representatives(canon, _cluster_labels(canon, radius)):
        sol = solutions[best]
        if not np.array_equal(sol.theta, canon[best]):
            sol = replace(sol, theta=canon[best])
        reps.append(sol)
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
    carries flags instead, and any flag withholds the parity.
    """
    opts = opts or SolverOptions()
    seeds = _scan_seeds(curve, opts.grid)
    if extra_seeds is not None:
        seeds = np.vstack([seeds, np.asarray(extra_seeds, dtype=float).reshape(-1, 4)])
    # a row repeated exactly after Newton's reduction mod 2pi has the same iterates;
    # lexsort is stable, so each run of equal rows starts with the first copy
    with np.errstate(invalid="ignore"):
        reduced = np.mod(seeds, TWO_PI)
    order = np.lexsort(reduced.T)
    repeat = np.zeros(len(seeds), dtype=bool)
    repeat[order[1:]] = (reduced[order[1:]] == reduced[order[:-1]]).all(axis=1)
    thetas, norms, status, _ = _newton_batch(curve, seeds[~repeat], opts)

    flags = []
    if np.any(status == _STATUS_NEAR_BOUNDARY):
        flags.append("NearBoundary")

    canon = _canonical_batch(thetas[status == _STATUS_CONVERGED])
    labels = _cluster_labels(canon, opts.dedup_radius)
    classes = _make_solutions(curve, canon[_representatives(canon, labels)], opts)

    if not all(s.transverse for s in classes):
        flags.append("NonTransverse")
    if _continuum_suspected(classes, opts):
        flags.append("ContinuumSuspected")
    if not classes and not flags:
        # no root converged: the theorem promises an odd count, so 0 proves nothing
        flags.append("IncompleteSuspected")
    return SolveReport(classes, flags)


def _continuum_suspected(classes: list, opts: SolverOptions) -> bool:
    """Two non-transverse classes closer than 1000x the dedup radius."""
    suspects = np.array([s.theta for s in classes if not s.transverse]).reshape(-1, 4)
    i, j = _linked(suspects, suspects, 1e3 * opts.dedup_radius)
    return bool(np.any(i != j))
