"""The solver's whole-array bookkeeping against plain reference implementations.

Each reference is the straightforward form of the rule: each row rotated by
``np.roll`` to its smallest angle and tested for order, the class distance
as a loop over the four cyclic shifts, single linkage from a double loop
over it and a union-find, Newton damping that halves the step one fraction
at a time, residual minima read off a dense n^4 array, the index tables from
``itertools`` combinations sorted into colex order, and the scan's points
from angles built afresh on every call.  The solver must agree with them
exactly.
"""

import itertools
import math

import numpy as np
import pytest

from squarepeg import (
    Curve,
    SolverOptions,
    canonical_theta,
    class_distance,
    make_ellipse,
    ordered_component_check,
    perturb,
    seed_grid,
)
from squarepeg import solver
from squarepeg.config import _ordered_batch
from squarepeg.slq import G_TARGET
from squarepeg.solver import (
    _STATUS_CONVERGED,
    _STATUS_DIVERGED,
    _STATUS_LEFT_ORDERED,
    _STATUS_NEAR_BOUNDARY,
    _canonical_batch,
    _class_distances,
    LATTICE_SEED_NORM,
    SEED_NORM,
    _cluster_labels,
    _index_tables,
    _lattice_minima,
    _newton_batch,
    _representatives,
    _scan_seeds,
    _squared_distances,
)

from oracle import _candidates

TWO_PI = 2 * np.pi


def canonical_reference(thetas):
    """Reduce into [0, 2pi) and rotate the tuple so the smallest angle comes first."""
    th = np.array([a % TWO_PI for a in np.asarray(thetas, dtype=float).reshape(4)])
    th[th == TWO_PI] = 0.0  # a % 2pi rounds an angle just below 0 up to 2pi
    return np.roll(th, -int(np.argmin(th)))


def class_distance_reference(t1, t2):
    """Sup metric on angle tuples up to cyclic relabeling, circular per angle."""
    a = np.mod(np.asarray(t1, dtype=float).reshape(4), TWO_PI)
    b = np.mod(np.asarray(t2, dtype=float).reshape(4), TWO_PI)
    best = np.inf
    for s in range(4):
        diff = np.abs(a - np.roll(b, s)) % TWO_PI
        diff = np.minimum(diff, TWO_PI - diff)
        best = min(best, float(diff.max()))
    return best


def ordered_reference(thetas):
    """Rows whose rotation to start at their smallest angle, after reduction
    mod 2pi, strictly increases; one row at a time."""
    out = []
    for row in np.asarray(thetas, dtype=float).reshape(-1, 4):
        th = np.mod(row, TWO_PI)
        out.append(bool(np.all(np.diff(np.roll(th, -int(np.argmin(th)))) > 0.0)))
    return np.array(out, dtype=bool)


def test_canonical_rotation_matches_reference():
    rng = np.random.default_rng(50)
    spread = rng.uniform(-4 * np.pi, 6 * np.pi, size=(500, 4))
    ties = rng.choice(np.arange(-8, 17) * np.pi / 4, size=(500, 4))
    special = [[TWO_PI, 1.0, 2.0, 3.0], [-0.0, 1.0, 1.0, -0.0], [1.0, 2.0, -1e-17, 3.0]]
    thetas = np.concatenate([spread, ties, special])
    expected = np.array([canonical_reference(th) for th in thetas])
    assert np.array_equal(_canonical_batch(thetas), expected)
    assert all(np.array_equal(canonical_theta(th), e) for th, e in zip(thetas, expected))


def test_ordered_batch_matches_canonical_rotation_rule():
    rng = np.random.default_rng(51)
    n = 40_000
    spread = rng.uniform(-4 * np.pi, 6 * np.pi, size=(n, 4))
    # few distinct values give many ties, exact and mod 2pi
    ties = rng.choice(np.arange(-8, 17) * np.pi / 4, size=(n, 4))
    near = np.sort(rng.uniform(0, TWO_PI, size=(n, 4)), axis=1)
    near[::2, 2] = near[::2, 1] + rng.choice([0.0, 1e-300, -1e-15], size=n // 2)
    near += rng.choice([-TWO_PI, 0.0, TWO_PI], size=(n, 1))
    special = np.array(
        [
            [0.0, 1.0, 2.0, 3.0],
            [TWO_PI, 1.0, 2.0, 3.0],
            [-0.0, 1.0, 2.0, TWO_PI - 1e-16],
            [1.0, 1.0, 1.0, 1.0],
            [np.nan, 1.0, 2.0, 3.0],
            [0.0, 1.0, np.inf, 3.0],
            [-np.inf, 1.0, 2.0, 3.0],
            [-1.0, -0.5, 0.5, 1.0],
            [-TWO_PI, 1.0, 2.0, 3.0],
            [TWO_PI, 0.0, 1.0, 2.0],
            [3.0, 2.0, 1.0, 0.0],
        ]
    )
    thetas = np.concatenate([spread, ties, near, special])
    with np.errstate(invalid="ignore"):  # inf mod 2pi is nan
        got, expected = _ordered_batch(thetas), ordered_reference(thetas)
        # the public check is a one-row call of the same rule
        public = [ordered_component_check(th) for th in special]
    assert len(thetas) >= 100_000
    assert np.array_equal(got, expected)
    assert 0.05 < got.mean() < 0.95
    assert public == expected[-len(special) :].tolist()
    assert public == [True, True, False, False, False, False, False, True, True, False, False]


def test_ordered_batch_uint8_count_on_rows_with_nonfinite_angles():
    # the count of positive differences is summed in uint8: rows with nan
    # and +-inf angles, and repeated angles, must still give the reference
    rng = np.random.default_rng(54)
    thetas = rng.uniform(-TWO_PI, 2 * TWO_PI, size=(1000, 4))
    special = rng.random((1000, 4)) < 0.05
    thetas[special] = rng.choice([np.nan, np.inf, -np.inf], size=special.sum())
    thetas[::9, 3] = thetas[::9, 2]
    assert all(np.isin(v, thetas) for v in (np.inf, -np.inf)) and np.isnan(thetas).any()
    with np.errstate(invalid="ignore"):
        got, expected = _ordered_batch(thetas), ordered_reference(thetas)
    assert got.dtype == bool
    assert np.array_equal(got, expected)
    assert 0.05 < got.mean() < 0.95


def test_class_distance_matrix_matches_class_distance():
    rng = np.random.default_rng(52)
    a = np.mod(rng.uniform(-1, 7, size=(30, 4)), TWO_PI)
    a[:3, 0] = [0.0, 1e-12, TWO_PI - 1e-12]
    # near copies of rows of a, relabeled, and unrelated tuples
    near = np.roll(a[:10] + rng.uniform(-1e-9, 1e-9, size=(10, 4)), 1, axis=1)
    b = np.mod(np.concatenate([near, rng.uniform(-1, 7, size=(20, 4))]), TWO_PI)
    expected = np.array([[class_distance_reference(x, y) for y in b] for x in a])
    assert np.array_equal(_class_distances(a, b), expected)
    # the public scalar reduces its arguments, as the reference does
    unreduced = b + TWO_PI * rng.integers(-2, 3, size=b.shape)
    got = [class_distance(a[0] - TWO_PI, y) for y in unreduced]
    assert got == [class_distance_reference(a[0] - TWO_PI, y) for y in unreduced]


def single_linkage_reference(canon, radius):
    """Classes as frozensets of row indices: union-find over every pair of
    rows with ``class_distance`` <= radius."""
    parent = list(range(len(canon)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(canon)):
        for j in range(i):
            if class_distance_reference(canon[i], canon[j]) <= radius:
                parent[find(i)] = find(j)
    classes = {}
    for i in range(len(canon)):
        classes.setdefault(find(i), set()).add(i)
    return {frozenset(c) for c in classes.values()}


def partition(labels):
    classes = {}
    for i, lab in enumerate(labels):
        classes.setdefault(int(lab), set()).add(i)
    return {frozenset(c) for c in classes.values()}


def jittered_roots(rng, centres, copies, jitter):
    """``copies`` perturbed copies of each centre, some exact duplicates and
    some cyclically relabeled, shuffled."""
    rows = []
    for c in centres:
        for k in range(copies):
            th = c + (0.0 if k % 3 == 0 else rng.uniform(-jitter, jitter, size=4))
            rows.append(np.roll(th, k % 4))
    rows = np.array(rows)
    return rows[rng.permutation(len(rows))]


def check_clusters(thetas, radius):
    canon = _canonical_batch(thetas)
    labels = _cluster_labels(canon, radius)
    expected = single_linkage_reference(canon, radius)
    assert partition(labels) == expected
    reps = _representatives(canon, labels)
    assert len(reps) == len(expected)
    for cls in expected:
        (rep,) = [r for r in reps if r in cls]
        assert tuple(canon[rep]) == min(tuple(canon[i]) for i in cls)
    return expected


@pytest.mark.parametrize("seed", range(4))
def test_cluster_labels_match_single_linkage_on_random_roots(seed):
    # clusters 1e-3 r wide and far apart, so linking bucket owners instead of
    # every row cannot change the partition
    rng = np.random.default_rng(60 + seed)
    radius = 1e-6
    centres = np.sort(rng.uniform(0, TWO_PI, size=(12, 4)), axis=1)
    thetas = jittered_roots(rng, centres, copies=7, jitter=1e-3 * radius)
    assert len(check_clusters(thetas, radius)) == 12


def test_cluster_labels_join_pair_split_across_zero():
    radius = 1e-6
    thetas = np.array(
        [
            [1e-10, 1.0, 2.0, 3.0],
            [TWO_PI - 1e-10, 1.0 - 2e-10, 2.0 - 2e-10, 3.0 - 2e-10],
            [0.5, 1.5, 2.5, 3.5],
        ]
    )
    assert len(check_clusters(thetas, radius)) == 2


def test_cluster_labels_chain_links_ends_farther_than_radius():
    radius = 1e-6
    base = np.array([0.3, 1.4, 2.9, 4.4])
    step = np.array([0.9, 0.0, -0.5, 0.2]) * radius
    chain = base + np.arange(6)[:, None] * step
    assert class_distance_reference(chain[0], chain[2]) > radius
    far = base + 5.0
    thetas = np.concatenate([chain, chain[::2], [far], [far]])
    classes = check_clusters(thetas[::-1], radius)
    assert sorted(len(c) for c in classes) == [2, 9]


def test_cluster_labels_empty():
    canon = np.empty((0, 4))
    labels = _cluster_labels(canon, 1e-6)
    assert labels.shape == (0,)
    assert _representatives(canon, labels).shape == (0,)


def kernel_reference(pts, diameter, tan=None):
    """Residual, sup-norms, min separation and (given tangents) Jacobian from
    one kernel call: the reference that the split kernels match bit for bit."""
    coords = np.ascontiguousarray(pts.T)
    diff = coords[:, solver._PAIR_I] - coords[:, solver._PAIR_J]
    sq = (diff * diff).sum(0)
    min_sep = np.sqrt(sq.min(axis=0))
    nd = solver._NUM_DEN @ sq
    num, den = nd[:4], nd[4:]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = num / den
        res = g - G_TARGET[:, None]
        norms = np.abs(res).max(axis=0)
    ok = (min_sep > solver.MACHINE_SEP * diameter) & np.isfinite(norms)
    norms = np.where(ok, norms, np.inf)
    if tan is None:
        return res.T, norms, min_sep, None
    tangents = np.ascontiguousarray(tan.T)[:, solver._PAIR_IJ]
    dots = (np.concatenate([diff, diff], axis=1) * tangents).sum(0)
    dnd = (solver._DOTS_TO_DNUM_DEN.T @ dots).reshape(8, 4, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = (dnd[:4] - g[:, None] * dnd[4:]) / den[:, None]
    return res.T, norms, min_sep, jac


@pytest.mark.parametrize("dim", [2, 3])
def test_split_kernels_match_the_single_kernel(dim):
    # random points and tangents, with coincident vertices (norm +inf, nan
    # Jacobian entries), one non-finite row and tiny and huge scales
    rng = np.random.default_rng(70 + dim)
    for m in (1, 2, 7, 300):
        pts = rng.normal(size=(m, 4, dim)) * 10.0 ** rng.uniform(-4, 4, size=(m, 1, 1))
        tan = rng.normal(size=(m, 4, dim))
        pts[::3, 2] = pts[::3, 1]
        pts[::5, 3] = pts[::5, 0]
        pts[-1, 1, 0] = [np.nan, np.inf][m % 2]
        diameter = float(np.abs(pts[np.isfinite(pts)]).max())
        with np.errstate(invalid="ignore"):  # inf * 0 in the matrix products
            res, norms, min_sep, jac = kernel_reference(pts, diameter, tan)
            got = solver._residual_kernel(pts, diameter)
            got_jac = solver._jacobian_kernel(pts, tan)
        for a, b in zip(got + (got_jac,), (res, norms, min_sep, jac)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)
        assert np.isnan(jac[..., ::3]).any(axis=(0, 1)).all()
        assert np.isinf(norms[::3]).all() and np.isinf(norms[-1])
        if m > 2:
            assert np.isfinite(norms).any()


def newton_batch_reference(curve, seeds, opts):
    """``_newton_batch`` with the damping fractions 2^-k tried one at a time."""
    thetas = np.mod(np.array(seeds, dtype=float), TWO_PI)
    m = thetas.shape[0]
    pts = curve.eval(thetas)
    res, norms, min_sep, _ = kernel_reference(pts, curve.diameter)
    converged = norms < opts.tol_residual
    active = np.isfinite(norms)
    used_singular = np.zeros(m, dtype=bool)
    for _ in range(opts.max_iters):
        idx = np.flatnonzero(active & ~converged)
        if not idx.size:
            break
        tan = curve.deriv(thetas[idx])
        _, _, _, jac = kernel_reference(pts[idx], curve.diameter, tan)
        step, regular = solver._newton_step(jac, res[idx].T)
        used_singular[idx[~regular]] = True
        live = np.arange(len(idx))
        for k in range(11):
            if not live.size:
                break
            rows = idx[live]
            trial = np.mod(thetas[rows] + 0.5**k * step[live], TWO_PI)
            trial_pts = curve.eval(trial)
            trial_res, trial_norm, trial_sep, _ = kernel_reference(trial_pts, curve.diameter)
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
        # the order rule itself is pinned by the test against ordered_reference
        active[idx] = improved & _ordered_batch(thetas[idx])
    status = np.where(converged, _STATUS_CONVERGED, _STATUS_DIVERGED).astype(np.int8)
    status[converged & (min_sep / curve.diameter <= opts.sep_guard)] = _STATUS_NEAR_BOUNDARY
    status[~_ordered_batch(thetas)] = _STATUS_LEFT_ORDERED
    return thetas, norms, status, used_singular


@pytest.mark.parametrize("name", ["ellipse", "three-lobe", "wiggly8", "circle"])
def test_newton_batch_matches_sequential_halving(name, three_lobe):
    ellipse = make_ellipse(2, 1)
    curve = {
        "ellipse": ellipse,
        "three-lobe": three_lobe,
        "wiggly8": perturb(ellipse, 0.12, 8, seed=3),
        "circle": make_ellipse(1, 1),
    }[name]
    opts = SolverOptions()
    got = _newton_batch(curve, seed_grid(opts.grid), opts)
    expected = newton_batch_reference(curve, seed_grid(opts.grid), opts)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert np.count_nonzero(got[2] == _STATUS_CONVERGED) > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_squared_distances_match_difference_array(dim):
    # summed coordinate by coordinate in the order of the reduction over the
    # last axis, so the lattice minima see the same bits
    rng = np.random.default_rng(53 + dim)
    for shape in [(24, 4), (14, 128), (32,)]:
        pts = rng.normal(size=shape + (dim,)) * 10.0 ** rng.uniform(-3, 3)
        diff = pts[:, None] - pts[None, :]
        assert np.array_equal(_squared_distances(pts), (diff * diff).sum(axis=-1))


def colex(n, k):
    """Sorted k-subsets of range(n) as lists, by last index first."""
    return sorted(map(list, itertools.combinations(range(n), k)), key=lambda t: t[::-1])


@pytest.mark.parametrize("n", [8, 12, 14, 24])
def test_index_tables_triples_map_back_to_their_tuples(n):
    # the triple prefilter tests g0 on (a, b, d), g1 on (a, b, c) and g2 on
    # (b, c, d): each column of ranks must name exactly those triples
    tuples, _, triple_ranks, triple_pairs, upper = _index_tables(n)
    assert tuples.tolist() == colex(n, 4)
    x, y = np.divmod(triple_pairs[0], n)
    z = triple_pairs[1] % n
    assert np.array_equal(triple_pairs, [x * n + y, x * n + z, y * n + z])
    triples = np.stack([x, y, z], axis=1)
    assert triples.tolist() == colex(n, 3)
    for ranks, cols in zip(triple_ranks, ([0, 1, 3], [0, 1, 2], [1, 2, 3])):
        assert np.array_equal(triples[ranks], tuples[:, cols])
    assert np.array_equal(upper, np.ravel_multi_index(np.triu_indices(n, 1), (n, n)))
    assert not any(t.flags.writeable for t in _index_tables(n))


def index_tables_reference(n):
    """``_index_tables`` from ``itertools`` combinations sorted by ``np.lexsort``
    into colex order, with the neighbour and triple ranks read from a 2-D
    binomial table by fancy indexing."""

    def combinations(k):
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
        c = np.fromiter(flat, dtype=np.intp).reshape(-1, k)
        return c[np.lexsort(c.T)]  # the columns, last first: colex order

    tuples, triples = combinations(4), combinations(3)
    # binom[x, p] = C(x, p + 1), the rank term of index x in slot p
    binom = np.array([[math.comb(x, k) for k in range(1, 5)] for x in range(n + 1)], dtype=np.intp)
    slots = np.arange(4)
    count = len(tuples)
    rank = np.arange(count)[:, None] - binom[tuples, slots]
    below = np.hstack([np.full((count, 1), -1), tuples[:, :3]])
    above = np.hstack([tuples[:, 1:], np.full((count, 1), n)])
    neighbours = np.hstack(
        [
            np.where(tuples + 1 < above, rank + binom[tuples + 1, slots], count),
            np.where(tuples - 1 > below, rank + binom[tuples - 1, slots], count),
        ]
    )
    triple_ranks = binom[tuples[:, [[0, 1, 3], [0, 1, 2], [1, 2, 3]]], slots[:3]].sum(axis=2).T
    triple_pairs = triples[:, [0, 0, 1]].T * n + triples[:, [1, 2, 2]].T
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    return tuples, neighbours, triple_ranks, triple_pairs, upper


@pytest.mark.parametrize("n", [4, 5, 8, 12, 14, 24, 32])
def test_index_tables_match_sorted_combinations(n):
    for got, expected in zip(_index_tables(n), index_tables_reference(n), strict=True):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)


def scan_seeds_reference(curve, n):
    """``_scan_seeds`` with the angles built afresh and evaluated by ``Curve.eval``."""
    values = TWO_PI * (np.arange(n)[:, None] + np.array([0.0, 0.5])) / n
    numberings = np.hstack([values, np.roll(values, -(n // 2), axis=0)])
    rows, cols = _lattice_minima(_squared_distances(curve.eval(numberings)), LATTICE_SEED_NORM)
    angles = solver.WINDOW_WIDTH * np.arange(solver.WINDOW_SAMPLES)[:, None] / (
        solver.WINDOW_SAMPLES
    ) + (TWO_PI * np.arange(solver.WINDOW_ARCS) / solver.WINDOW_ARCS)
    arc_rows, arcs = _lattice_minima(_squared_distances(curve.eval(angles)), SEED_NORM)
    lattice_seeds = numberings[_index_tables(n)[0][rows], cols[:, None]]
    window_seeds = angles[_index_tables(solver.WINDOW_SAMPLES)[0][arc_rows], arcs[:, None]]
    return np.vstack([lattice_seeds, window_seeds])


@pytest.mark.parametrize("n", [12, 24])
def test_scan_seeds_match_fresh_evaluation(n, three_lobe):
    ellipse = make_ellipse(2, 1)
    trefoil = Curve(
        [0, 0, 0], [[0, 0, 0], [1, -2, 0], [0, 0, 0]], [[1, 2, 0], [0, 0, 0], [0, 0, -1]]
    )
    wiggly8 = perturb(ellipse, 0.12, 8, seed=3)
    # harmonic counts 1, 4, 1, 3, 8, 1 at one n: a cache keyed on n alone
    # would hand each solve the tables of the curve before it
    curves = [ellipse, three_lobe, make_ellipse(1, 1), trefoil, wiggly8, ellipse]
    for curve in curves:
        seeds = _scan_seeds(curve, n)
        expected = scan_seeds_reference(curve, n)
        assert seeds.shape == expected.shape and len(seeds) > 0
        assert np.array_equal(seeds, expected)
    for harmonics in (1, 3, 8):
        assert not any(t.flags.writeable for t in solver._scan_tables(n, harmonics))


def dense_norms(sq):
    """(n, n, n, n) residual sup-norm of one squared-distance table.

    The formula of ``tests/oracle.py::_norm_lattice`` in float64; +inf off
    the strictly increasing index tuples.
    """
    i, j, k, l = np.meshgrid(*[np.arange(len(sq))] * 4, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (
            sq[i, j] / sq[i, l] - 1.0,
            sq[j, k] / sq[i, j] - 1.0,
            sq[k, l] / sq[j, k] - 1.0,
            (sq[i, k] - sq[j, l]) / sq[i, j],
        )
        norm = np.maximum.reduce([np.abs(x) for x in g])
    return np.where((i < j) & (j < k) & (k < l), norm, np.inf)


def coincident_table(n):
    """(n, n) squared distances of ellipse samples with sample 1 moved onto
    sample 0, on the axis of mirror symmetry of the rest: the tuples
    (0, 1, k, n - k) have s01 = 0 and s02 = s13, so their norm is 0/0 = nan."""
    pts = make_ellipse(2, 1).eval(TWO_PI * np.arange(n) / n)
    half = np.arange(1, n // 2)
    pts[n - half] = pts[half] * [1.0, -1.0]
    pts[1] = pts[0]
    return _squared_distances(pts)


def check_lattice_minima(sq, threshold):
    """``_lattice_minima`` against the dense minima of each table; returns them."""
    n = sq.shape[0]
    rows, tables = _lattice_minima(sq, threshold)
    assert rows.dtype == tables.dtype == np.intp
    got = {(int(b), tuple(t)) for b, t in zip(tables, _index_tables(n)[0][rows].tolist())}
    expected = set()
    for b in range(sq.shape[-1]):
        dense = dense_norms(sq[..., b])
        for idx in _candidates(dense, extra_lowest=0):
            if dense[tuple(idx)] < threshold:
                expected.add((b, tuple(idx.tolist())))
    assert got == expected
    return got


@pytest.mark.parametrize("threshold", [SEED_NORM, LATTICE_SEED_NORM, np.inf])
@pytest.mark.parametrize("n", [8, 12, 14])
@pytest.mark.parametrize("name", ["ellipse", "circle", "three-lobe", "wiggly8"])
def test_lattice_minima_match_dense_brute_force(name, n, threshold, three_lobe):
    ellipse = make_ellipse(2, 1)
    curve = {
        "ellipse": ellipse,
        "circle": make_ellipse(1, 1),
        "three-lobe": three_lobe,
        "wiggly8": perturb(ellipse, 0.12, 8, seed=3),
    }[name]
    # one table of the whole circle and three of short arcs, batch-last, and
    # one with nan norms: a nan neighbour blocks a candidate, as v <= nan is
    # false in the dense comparison
    angles = np.stack(
        [TWO_PI * np.arange(n) / n]
        + [start + 0.5 * np.arange(n) / n for start in (0.0, 1.3, 4.0)],
        axis=-1,
    )
    pts = curve.eval(angles)
    sq = ((pts[:, None] - pts[None, :]) ** 2).sum(axis=-1)
    sq = np.concatenate([sq, coincident_table(n)[..., None]], axis=-1)
    assert np.isnan(dense_norms(sq[..., -1])).any()
    assert len(check_lattice_minima(sq, threshold)) > 0
    # windows too short for any tuple to come below the window threshold
    short = curve.eval(1e-3 * np.arange(n)[:, None] / n + np.array([0.0, 1.3, 4.0]))
    assert check_lattice_minima(_squared_distances(short), SEED_NORM) == set()


def test_lattice_minima_compact_lookup_on_a_window_batch():
    # the window batch shape: 128 short arcs, where no tuple comes below the
    # window threshold, and one full-circle table among them that holds every
    # candidate, so the norm lookup has one slot, away from table 0
    n = solver.WINDOW_SAMPLES
    ellipse = make_ellipse(2, 1)
    short = 1e-3 * np.arange(n)[:, None] / n + TWO_PI * np.arange(128) / 128
    angles = np.insert(short, 77, TWO_PI * np.arange(n) / n, axis=1)
    got = check_lattice_minima(_squared_distances(ellipse.eval(angles)), SEED_NORM)
    assert len(got) > 0 and {b for b, _ in got} == {77}
