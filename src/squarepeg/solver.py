"""Finds inscribed square-like quadrilaterals by damped Newton on the 4-torus.

The residual G(theta) = g(gamma(theta_1..4)) - (1,1,1,0) is driven to zero
from a grid of ordered seeds.  Converged roots are certified by the 4x4
reduced Jacobian determinant, deduplicated up to cyclic relabeling, and
reported with a parity verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .config import TWO_PI, Config4, ordered_component_check
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

#: column pairs of the 2x2 minors
_COL_PAIRS = list(itertools.combinations(range(4), 2))
#: cofactor expansion for column i: each column k != i with the index of
#: the column pair that i and k leave
_EXPANSION = [
    [(k, _COL_PAIRS.index(tuple(sorted({0, 1, 2, 3} - {i, k})))) for k in range(4) if k != i]
    for i in range(4)
]

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

    def to_dict(self) -> dict:
        return {
            "grid": self.grid,
            "tol_residual": self.tol_residual,
            "max_iters": self.max_iters,
            "dedup_radius": self.dedup_radius,
            "sep_guard": self.sep_guard,
            "det_threshold": self.det_threshold,
        }


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
    labeled_count: int
    parity: str  # "odd" | "even" | "withheld"
    all_transverse: bool
    degeneracy_flags: list = field(default_factory=list)


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
    coords = np.ascontiguousarray(pts.T)
    diff = coords[:, _PAIR_I] - coords[:, _PAIR_J]
    sq = (diff * diff).sum(0)
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
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_per_axis), 4)),
        dtype=np.intp,
    ).reshape(-1, 4)
    # row t of the (4, 4) index table rotates a combination to start at slot t
    rotations = combos[:, (np.arange(4)[:, None] + np.arange(4)) % 4]
    return values[rotations[values[combos] < np.pi / 2]]


def canonical_theta(thetas) -> np.ndarray:
    """Reduce mod 2pi and rotate the tuple so the smallest angle comes first."""
    th = np.mod(np.asarray(thetas, dtype=float).reshape(4), TWO_PI)
    return np.roll(th, -int(np.argmin(th)))


def _canonical_batch(thetas: np.ndarray) -> np.ndarray:
    th = np.mod(np.asarray(thetas, dtype=float).reshape(-1, 4), TWO_PI)
    rows = np.arange(th.shape[0])
    start = np.argmin(th, axis=1)
    return np.stack([th[rows, (start + s) % 4] for s in range(4)], axis=1)


def _ordered_batch(thetas: np.ndarray) -> np.ndarray:
    rot = _canonical_batch(thetas)
    return np.all(np.diff(rot, axis=1) > 0.0, axis=1)


def class_distance(t1, t2) -> float:
    """Sup metric on angle tuples up to cyclic relabeling, circular per angle."""
    a = np.mod(np.asarray(t1, dtype=float).reshape(4), TWO_PI)
    b = np.mod(np.asarray(t2, dtype=float).reshape(4), TWO_PI)
    best = np.inf
    for s in range(4):
        diff = np.abs(a - np.roll(b, s)) % TWO_PI
        diff = np.minimum(diff, TWO_PI - diff)
        best = min(best, float(diff.max()))
    return best


def _newton_batch(curve: Curve, seeds: np.ndarray, opts: SolverOptions):
    """Damped Newton on all seeds at once.

    Returns (thetas, residual sup-norms, status array, singular-fallback flags).
    The step comes from ``_newton_step``; damping halves it until the
    residual norm decreases.  A seed is flagged once any of its Jacobians
    fails the determinant regularity test.
    """
    thetas = np.mod(np.array(seeds, dtype=float), TWO_PI)
    m = thetas.shape[0]
    pts = _points_at(curve, thetas)
    res, norms, min_sep, _ = _kernel(pts, curve.diameter)
    converged = norms < opts.tol_residual
    active = np.ones(m, dtype=bool)
    used_singular = np.zeros(m, dtype=bool)
    for _ in range(opts.max_iters):
        idx = np.flatnonzero(active & ~converged)
        if not idx.size:
            break
        _, _, _, jac = _kernel(pts[idx], curve.diameter, _tangents_at(curve, thetas[idx]))
        step, regular = _newton_step(jac, res[idx].T)
        used_singular[idx[~regular]] = True
        # halve the step until the residual norm drops; accepted trials
        # overwrite their rows in place, points included
        live = np.arange(len(idx))
        for k in range(11):
            if not live.size:
                break
            rows = idx[live]
            trial = np.mod(thetas[rows] + 0.5**k * step[live], TWO_PI)
            trial_pts = _points_at(curve, trial)
            trial_res, trial_norm, trial_sep, _ = _kernel(trial_pts, curve.diameter)
            better = trial_norm < norms[rows]
            hit = rows[better]
            thetas[hit] = trial[better]
            pts[hit] = trial_pts[better]
            res[hit] = trial_res[better]
            norms[hit] = trial_norm[better]
            min_sep[hit] = trial_sep[better]
            live = live[~better]
        improved = np.ones(len(idx), dtype=bool)
        improved[live] = False
        converged[idx] = norms[idx] < opts.tol_residual
        active[idx] = improved | converged[idx]

    status = np.full(m, _STATUS_DIVERGED, dtype=np.int8)
    conv_idx = np.flatnonzero(converged)
    if conv_idx.size:
        rel_sep = min_sep[conv_idx] / curve.diameter
        ordered = _ordered_batch(thetas[conv_idx])
        st = np.full(conv_idx.size, _STATUS_CONVERGED, dtype=np.int8)
        st[~ordered] = _STATUS_LEFT_ORDERED
        st[ordered & (rel_sep <= opts.sep_guard)] = _STATUS_NEAR_BOUNDARY
        status[conv_idx] = st
    return thetas, norms, status, used_singular


def _cofactors(jac: np.ndarray):
    """Cofactor matrices and determinants of a batch-last (4, 4, m) stack.

    Laplace expansion by complementary minors: the 2x2 minors of rows (0, 1)
    and of rows (2, 3) on the six column pairs are formed once.  Cofactor
    C[j, i] expands the 3x3 left by row j and column i along the other row
    of j's pair, which sits first or last of the three and so adds no sign,
    against the minors of the other pair; det is row 0 against its
    cofactors.  Every operation runs on whole rows of length m.
    """
    minors = [
        [top[a] * bottom[b] - top[b] * bottom[a] for a, b in _COL_PAIRS]
        for top, bottom in (jac[:2], jac[2:])
    ]
    cof = np.empty_like(jac)
    for j, i in itertools.product(range(4), range(4)):
        row, mins = jac[j ^ 1], minors[1 - j // 2]
        (k0, p0), (k1, p1), (k2, p2) = _EXPANSION[i]
        term = row[k0] * mins[p0] - row[k1] * mins[p1] + row[k2] * mins[p2]
        np.multiply(term, (-1.0) ** (i + j), out=cof[j, i])
    return cof, np.einsum("im,im->m", jac[0], cof[0])


def _newton_step(jac: np.ndarray, res: np.ndarray):
    """Newton steps -J^-1 r for a batch-last (4, 4, m) Jacobian and (4, m) residual.

    Returns the (m, 4) steps and the mask of rows that pass the regularity
    test |det| > 1e-10 max|J_ij|^4.  A row takes the closed form
    -adj(J) r / det when it is regular or when ||J||_F ||adj J||_F <
    1e10 |det|: that bounds cond_2(J) <= cond_F(J) < 1e10, so no singular
    value falls below 1e-10 sigma_max and pinv(J, rcond=1e-10) is exactly
    J^-1.  Only the other, numerically rank-deficient rows pay for the SVD
    of the pseudo-inverse (Gauss-Newton) step.  The adjugate loses accuracy
    faster than LU as J nears singularity (2e-8 against 1e-11 relative at
    cond 1e6), so the closed form takes one step of iterative refinement
    with the same cofactors, which brings it back to LU's accuracy.
    """
    cof, det = _cofactors(jac)
    # rows of a degenerate seed may hold inf or nan; they fail both tests
    with np.errstate(all="ignore"):
        scale = np.maximum(jac.max(axis=(0, 1)), -jac.min(axis=(0, 1)))
        regular = np.abs(det) > 1e-10 * scale**4
        size = np.einsum("jim,jim->m", jac, jac) * np.einsum("jim,jim->m", cof, cof)
        rank_deficient = ~(regular | (size < 1e20 * det * det))
        step = np.einsum("jim,jm->im", cof, res) / -det
        step += np.einsum("jim,jm->im", cof, res + np.einsum("jim,im->jm", jac, step)) / -det
    if rank_deficient.any():
        pinv = np.linalg.pinv(jac[..., rank_deficient].transpose(2, 0, 1), rcond=1e-10)
        rhs = -res[:, rank_deficient].T[..., None]
        step[:, rank_deficient] = np.matmul(pinv, rhs)[..., 0].T
    return step.T, regular


def _certify(jac: np.ndarray, opts: SolverOptions):
    """Jacobian determinant and the scale-relative transversality verdict."""
    det = float(_cofactors(jac[..., None])[1][0])
    rows = np.linalg.norm(jac, axis=1)
    if rows.max() == 0.0 or rows.min() <= ROW_FLOOR * rows.max():
        return det, False
    return det, bool(abs(det) > opts.det_threshold * float(np.prod(rows)))


def _make_solution(curve: Curve, theta: np.ndarray, opts: SolverOptions) -> Solution:
    th = canonical_theta(theta)[None, :]
    pts = _points_at(curve, th)
    _, norms, min_sep, jac = _kernel(pts, curve.diameter, _tangents_at(curve, th))
    det, transverse = _certify(jac[..., 0], opts)
    return Solution(
        theta=th[0],
        config=Config4(pts[0]),
        residual_norm=float(norms[0]),
        jac_det=det,
        transverse=transverse,
        min_separation=float(min_sep[0] / curve.diameter),
    )


def newton_refine(curve: Curve, theta0, opts: SolverOptions | None = None) -> Solution:
    """Refine one seed; raises a typed error instead of returning junk."""
    opts = opts or SolverOptions()
    th0 = np.asarray(theta0, dtype=float).reshape(4)
    if not ordered_component_check(th0):
        raise ValueError("seed must lie in the ordered component")
    thetas, norms, status, singular = _newton_batch(curve, th0[None, :], opts)
    st = int(status[0])
    if st == _STATUS_CONVERGED:
        return _make_solution(curve, thetas[0], opts)
    if st == _STATUS_LEFT_ORDERED:
        raise LeftOrderedComponent(f"converged to unordered angles {thetas[0]}")
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


def _cluster_thetas(thetas, radius: float) -> list:
    """Single-linkage clusters under ``class_distance``; returns index lists.

    Tuples are first collapsed into quantization buckets of width radius/4
    (identical roots found from many seeds land in the same bucket), then the
    bucket representatives are swept in sorted order of the first angle of
    each cyclic rotation, so near-zero angles that wrap past 2pi still land
    in the same cluster.
    """
    arr = np.asarray(thetas, dtype=float).reshape(-1, 4)
    n = arr.shape[0]
    if n == 0:
        return []
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    canon = _canonical_batch(arr)
    q = radius / 4.0
    buckets = {}
    for i in range(n):
        key = tuple((canon[i] / q).astype(np.int64))
        other = buckets.setdefault(key, i)
        if other != i:
            union(other, i)
    rep_ids = sorted(set(buckets.values()))

    entries = []
    for owner in rep_ids:
        for s in range(4):
            rot = tuple(np.roll(canon[owner], -s))
            entries.append((rot[0], rot, owner))
    entries.sort(key=lambda e: e[0])

    def circ_sup(a, b):
        worst = 0.0
        for x, y in zip(a, b):
            d = abs(x - y) % TWO_PI
            d = min(d, TWO_PI - d)
            worst = max(worst, d)
        return worst

    window = radius + 4.0 * q
    for i, (first, rot, owner) in enumerate(entries):
        j = i - 1
        while j >= 0 and first - entries[j][0] <= window:
            other = entries[j][2]
            if find(owner) != find(other) and circ_sup(rot, entries[j][1]) <= radius:
                union(owner, other)
            j -= 1
    # wrap-around window: first angles near 0 vs near 2pi
    head = [e for e in entries if e[0] <= window]
    tail = [e for e in entries if e[0] >= TWO_PI - window]
    for _, rot_a, owner_a in head:
        for _, rot_b, owner_b in tail:
            if find(owner_a) != find(owner_b) and circ_sup(rot_a, rot_b) <= radius:
                union(owner_a, owner_b)

    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def quotient_dedup(solutions: list, radius: float = 1e-6) -> list:
    """One canonical representative per cyclic class.

    Clusters are single-linkage in the cyclic-quotient sup metric on angles;
    the representative is the lexicographically smallest canonical tuple, and
    the result is sorted lexicographically for determinism.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not solutions:
        return []
    canon = _canonical_batch(np.array([s.theta for s in solutions]))
    reps = []
    for members in _cluster_thetas(canon, radius):
        best = min(members, key=lambda i: tuple(canon[i]))
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
    """Search the full seed grid and report cyclic classes with parity.

    ``extra_seeds`` augments the grid (continuation feeds the previous
    step's solutions through here).  The report never raises on degeneracy;
    it carries flags instead.
    """
    opts = opts or SolverOptions()
    seeds = seed_grid(opts.grid)
    if extra_seeds is not None:
        extra = np.asarray(extra_seeds, dtype=float).reshape(-1, 4)
        if extra.size:
            seeds = np.vstack([seeds, extra])
    thetas, norms, status, _ = _newton_batch(curve, seeds, opts)

    flags = []
    if np.any(status == _STATUS_NEAR_BOUNDARY):
        flags.append("NearBoundary")

    good = thetas[status == _STATUS_CONVERGED]
    canon = _canonical_batch(good) if good.size else np.empty((0, 4))
    classes = []
    for members in _cluster_thetas(canon, opts.dedup_radius):
        rep_theta = min((canon[i] for i in members), key=tuple)
        classes.append(_make_solution(curve, rep_theta, opts))
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
        labeled_count=4 * len(classes),
        parity=parity,
        all_transverse=all_transverse,
        degeneracy_flags=flags,
    )


def _continuum_suspected(classes: list, opts: SolverOptions) -> bool:
    """Two non-transverse classes closer than 1000x the dedup radius."""
    window = 1e3 * opts.dedup_radius
    suspects = [s for s in classes if not s.transverse]
    suspects.sort(key=lambda s: float(s.theta[0]))
    for i, a in enumerate(suspects):
        for b in suspects[i + 1 :]:
            if float(b.theta[0]) - float(a.theta[0]) > window:
                break
            if class_distance(a.theta, b.theta) <= window:
                return True
    # wrap-around pairs
    lo = [s for s in suspects if float(s.theta[0]) <= window]
    hi = [s for s in suspects if float(s.theta[0]) >= TWO_PI - window]
    for a in lo:
        for b in hi:
            if class_distance(a.theta, b.theta) <= window:
                return True
    return False
