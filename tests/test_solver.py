import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarepeg import (
    Config4,
    Curve,
    SolveReport,
    SolverOptions,
    canonical_theta,
    class_distance,
    ellipse_dg_matrix,
    ellipse_square_angles,
    find_all,
    g_map,
    jacobian,
    make_ellipse,
    newton_refine,
    ordered_component_check,
    perturb,
    quotient_dedup,
    regularity_and_embedding_check,
    residual,
    seed_grid,
)
from squarepeg.continuation import EMBED_GUARD
from squarepeg.errors import (
    DegenerateConfiguration,
    Divergence,
    LeftOrderedComponent,
    NearBoundary,
    SingularJacobianDuringIteration,
)
from squarepeg import solver
from squarepeg.slq import G_TARGET
from squarepeg.solver import (
    _STATUS_CONVERGED,
    _STATUS_LEFT_ORDERED,
    _canonical_batch,
    _cluster_labels,
    _newton_batch,
    _newton_step,
)
from squarepeg.verify import random_rotation

from conftest import random_smooth_curve

TWO_PI = 2 * np.pi


def test_residual_zero_at_ellipse_square(ellipse21):
    theta = ellipse_square_angles(2, 1)
    assert np.abs(residual(ellipse21, theta)).max() < 1e-12


def test_residual_at_equally_spaced_angles(ellipse21):
    # the axis rhombus (+-2,0),(0,+-1): equal sides sqrt5, diagonals 4 and 2
    val = residual(ellipse21, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.allclose(val, [0, 0, 0, (16 - 4) / 5], atol=1e-14)


def test_residual_invariant_under_global_rotation():
    rng = np.random.default_rng(8)
    curve = random_smooth_curve(rng, dim=2, harmonics=3)
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rotated = type(curve)(
        rot @ curve.a0, rot @ curve.cos_coeffs, rot @ curve.sin_coeffs
    )
    for _ in range(20):
        theta = np.sort(rng.uniform(0, TWO_PI, size=4))
        if not ordered_component_check(theta):
            continue
        try:
            r0 = residual(curve, theta)
        except DegenerateConfiguration:
            continue
        assert np.allclose(r0, residual(rotated, theta), atol=1e-10)


def test_residual_rejects_collisions(ellipse21):
    with pytest.raises(DegenerateConfiguration):
        residual(ellipse21, [1.0, 1.0 + 1e-13, 2.0, 3.0])


@pytest.mark.filterwarnings("error")
def test_no_runtime_warning_escapes_the_kernels_callers(unit_circle):
    # the residual and Jacobian kernels run under their caller's error state:
    # each public caller ignores their 0/0 and x/0, which a degenerate row meets
    for coincident in ([1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, TWO_PI]):
        for fn in (residual, jacobian):
            with pytest.raises(DegenerateConfiguration):
                fn(unit_circle, coincident)
    for curve in (unit_circle, wiggly8()):
        assert find_all(curve).classes
    for seed in ([0.1, 1.6, 3.2, 4.75], [0, 1, 2, 3]):
        try:
            newton_refine(unit_circle, seed)
        except (Divergence, LeftOrderedComponent, NearBoundary):
            pass


def guarded_samples(rng, n_samples, dim=2, harmonics=3):
    """Random (curve, theta) pairs with ordered angles and separated vertices.

    Samples keep a moderate residual scale (angle separation >= 0.15, |G|
    bounded); closer-to-collision tuples satisfy the guard too but push the
    residual so large that central differences lose the target accuracy to
    truncation and cancellation, which would test the oracle, not the code.
    """
    checked = 0
    while checked < n_samples:
        curve = random_smooth_curve(rng, dim=dim, harmonics=harmonics)
        theta = np.sort(rng.uniform(0, TWO_PI, size=4))
        gaps = np.diff(np.concatenate([theta, [theta[0] + TWO_PI]]))
        if gaps.min() < 0.15:
            continue
        pts = curve.eval(theta)
        sep = min(
            np.linalg.norm(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)
        )
        if sep <= 1e-3 * curve.diameter:  # solver separation guard
            continue
        if np.abs(residual(curve, theta)).max() > 50:
            continue
        yield curve, theta
        checked += 1


@pytest.mark.parametrize("dim", [2, 3])
def test_residual_matches_g_map(dim):
    rng = np.random.default_rng(21 + dim)
    for curve, theta in guarded_samples(rng, 40, dim=dim, harmonics=5):
        expected = g_map(Config4(curve.eval(theta))) - G_TARGET
        got = residual(curve, theta)
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def fd_jacobian_samples(n_samples, seed, h=1e-6, dim=2, harmonics=3):
    """Worst |analytic - central difference| over ``guarded_samples``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for curve, theta in guarded_samples(rng, n_samples, dim=dim, harmonics=harmonics):
        jac = jacobian(curve, theta)
        fd = np.empty((4, 4))
        for col in range(4):
            shift = np.zeros(4)
            shift[col] = h
            fd[:, col] = (
                residual(curve, theta + shift) - residual(curve, theta - shift)
            ) / (2 * h)
        worst = max(worst, float(np.abs(jac - fd).max()))
    return worst


def test_jacobian_matches_central_differences():
    assert fd_jacobian_samples(30, seed=12) < 1e-5


def test_jacobian_matches_central_differences_r3_8_harmonics():
    assert fd_jacobian_samples(30, seed=13, dim=3, harmonics=8) < 1e-5


def test_jacobian_at_ellipse_square_matches_basis_matrix(ellipse21):
    theta = ellipse_square_angles(2, 1)
    jac = jacobian(ellipse21, theta)
    assert np.abs(jac - ellipse_dg_matrix(2, 1)).max() < 1e-9
    assert np.linalg.det(jac) == pytest.approx(30.0, abs=1e-8)


def test_jacobian_singular_on_circle(unit_circle):
    for t0 in (0.0, 0.3, 1.1):
        theta = np.mod(t0 + np.array([0, np.pi / 2, np.pi, 3 * np.pi / 2]), TWO_PI)
        det = np.linalg.det(jacobian(unit_circle, theta))
        assert abs(det) < 1e-10


def matrices_with_singular_values(rng, sigmas):
    """(n, 4, 4) matrices U diag(sigma) V^T with random orthogonal U, V."""
    sigmas = np.asarray(sigmas, dtype=float)
    u, _ = np.linalg.qr(rng.normal(size=(len(sigmas), 4, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(len(sigmas), 4, 4)))
    return (u * sigmas[:, None, :]) @ np.swapaxes(v, 1, 2)


def newton_step_batch_first(jac, res):
    """``_newton_step`` on (n, 4, 4) Jacobians and (n, 4) residuals."""
    return _newton_step(np.ascontiguousarray(jac.transpose(1, 2, 0)), res.T.copy())


def pinv_step(jac, res):
    return np.matmul(np.linalg.pinv(jac, rcond=1e-10), -res[..., None])[..., 0]


def count_rows(monkeypatch, owner, name, axis):
    """Patch ``owner.name`` to record the batch length, along ``axis``, of
    the array passed to it first."""
    rows = []
    inner = getattr(owner, name)

    def counting(batch, *args, **kwargs):
        rows.append(batch.shape[axis])
        return inner(batch, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return rows


def test_newton_step_matches_solve_on_well_conditioned_rows(monkeypatch):
    # regular rows take the LU solve: a pinv step costs about 4x as much
    rng = np.random.default_rng(31)
    n = 500
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    jac = matrices_with_singular_values(rng, rng.uniform(0.5, 2.0, size=(n, 4)))
    jac *= scale[:, None, None]
    res = rng.normal(size=(n, 4))
    rows = count_rows(monkeypatch, np.linalg, "pinv", axis=0)
    step, regular = newton_step_batch_first(jac, res)
    expected = np.linalg.solve(jac, -res[..., None])[..., 0]
    rel = np.linalg.norm(step - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert regular.all()
    assert rel.max() < 1e-12
    assert rows == []


def test_newton_step_matches_pinv_on_rank_deficient_rows(unit_circle):
    rng = np.random.default_rng(32)
    # circle Jacobians: rotating all four angles together is a null direction
    circle = np.array(
        [jacobian(unit_circle, np.sort(rng.uniform(0, TWO_PI, size=4))) for _ in range(300)]
    )
    assert (np.abs(circle @ np.ones(4)).max(axis=1) < 1e-12 * np.abs(circle).max(axis=(1, 2))).all()
    sigmas = (
        [[1.0, 0.7, 0.4, 1e-11]] * 20
        + [[1.0, 1e-4, 1e-4, 1e-6]] * 50
        + [[1.0, 1.0, 1e-5, 0.0]] * 20
    )
    rank3 = matrices_with_singular_values(rng, [[1.0, 0.5, 1e-2, 0.0]] * 100)
    diagonal = np.array(
        [np.diag([1.0, 1.0, 1e-11, 0.0])[list(p)] for p in itertools.permutations(range(4))]
    )
    jac = np.concatenate(
        [
            circle,
            matrices_with_singular_values(rng, sigmas),
            rank3 * 10.0 ** rng.uniform(-3, 3, size=(100, 1, 1)),
            diagonal,
        ]
    )
    res = rng.normal(size=(len(jac), 4))
    step, regular = newton_step_batch_first(jac, res)
    expected = pinv_step(jac, res)
    scale = np.linalg.norm(np.linalg.pinv(jac, rcond=1e-10), ord=2, axis=(1, 2))
    assert not regular.any()
    assert (
        np.linalg.norm(step - expected, axis=1) <= 1e-12 * scale * np.linalg.norm(res, axis=1)
    ).all()


def newton_step_masked(jac, res):
    """``_newton_step`` with every batch split by the regularity mask: the LU
    solve on the regular rows, pinv on the rest."""
    mats = jac.transpose(2, 0, 1)
    rhs = -res.T[..., None]
    det = np.linalg.det(mats)
    regular = np.abs(det) > 1e-10 * np.abs(mats).max(axis=(1, 2)) ** 4
    step = np.empty_like(rhs)
    step[regular] = np.linalg.solve(mats[regular], rhs[regular])
    rest = ~regular
    if rest.any():
        step[rest] = np.linalg.pinv(mats[rest], rcond=1e-10) @ rhs[rest]
    return step[..., 0], regular


def test_newton_step_all_regular_batch_matches_masked_route(ellipse21, monkeypatch):
    # an all-regular batch takes one solve on the whole stack: same bits
    rng = np.random.default_rng(33)
    seeds = seed_grid(12)[rng.permutation(495)[:200]]
    pts, tan = ellipse21.eval(seeds), ellipse21.deriv(seeds)
    res, _, _ = solver._residual_kernel(pts, ellipse21.diameter)
    jac = solver._jacobian_kernel(pts, tan)
    _, keep = newton_step_masked(jac, res.T)
    jac, res = jac[..., keep], res[keep]
    rows = count_rows(monkeypatch, np.linalg, "pinv", axis=0)
    for m in (1, 2, 30, len(res)):
        step, regular = _newton_step(jac[..., :m], res[:m].T)
        expected, expected_regular = newton_step_masked(jac[..., :m], res[:m].T)
        assert regular.all() and np.array_equal(regular, expected_regular)
        assert np.array_equal(step, expected)
    assert rows == []


def test_newton_step_sends_only_rank_deficient_rows_to_pinv(monkeypatch):
    rng = np.random.default_rng(34)
    jac = matrices_with_singular_values(
        rng, [[1.0, 0.8, 0.5, 0.3]] * 15 + [[1.0, 0.5, 1e-2, 0.0]] + [[2.0, 1.0, 0.7, 0.4]] * 14
    )
    res = rng.normal(size=(len(jac), 4))
    rows = count_rows(monkeypatch, np.linalg, "pinv", axis=0)
    step, regular = newton_step_batch_first(jac, res)
    assert rows == [1]
    assert np.flatnonzero(~regular).tolist() == [15]
    expected, _ = newton_step_masked(np.ascontiguousarray(jac.transpose(1, 2, 0)), res.T.copy())
    assert np.array_equal(step, expected)


def test_seed_grid_minimal():
    seeds = seed_grid(4)
    assert seeds.shape == (1, 4)
    assert np.allclose(seeds[0], [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def _seed_grid_reference(n_per_axis):
    """Loop form of ``seed_grid``: every rotation of each combination that
    starts below pi/2, combinations in lexicographic order."""
    values = TWO_PI * np.arange(n_per_axis) / n_per_axis
    out = []
    for combo in itertools.combinations(range(n_per_axis), 4):
        for t in range(4):
            if values[combo[t]] < np.pi / 2:
                out.append([values[combo[(t + s) % 4]] for s in range(4)])
    return np.array(out, dtype=float).reshape(-1, 4)


@pytest.mark.parametrize("n", [4, 8, 12, 24])
def test_seed_grid_matches_loop_reference(n):
    assert np.array_equal(seed_grid(n), _seed_grid_reference(n))


def test_seed_grid_contract():
    for n in (8, 24):
        seeds = seed_grid(n)
        assert len(seeds) <= n**4 / 4
        assert np.all(seeds[:, 0] < np.pi / 2)
        assert all(ordered_component_check(s) for s in seeds[:: max(1, len(seeds) // 50)])
    with pytest.raises(ValueError, match="n_per_axis must be >= 4"):
        seed_grid(3)


@pytest.mark.parametrize("bad", [6.5, 8.0, np.float64(8.0), "8"])
def test_seed_grid_rejects_non_integral_size(bad):
    with pytest.raises(ValueError, match="n_per_axis must be an integer"):
        seed_grid(bad)
    assert np.array_equal(seed_grid(np.int64(8)), seed_grid(8))


@pytest.mark.parametrize("field", ["grid", "max_iters"])
@pytest.mark.parametrize("bad", [12.5, 12.0, np.float64(12.0), "12", None])
def test_solver_options_reject_non_integral_counts(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverOptions(**{field: bad})
    opts = SolverOptions(**{field: np.int64(12)})
    assert opts == SolverOptions(**{field: 12}) and type(getattr(opts, field)) is int


def test_solver_options_bound_the_grid():
    # the scan's memory grows as C(grid, 4); only the options are built here
    assert SolverOptions(grid=solver.MAX_GRID).grid == 96
    for grid in (97, 200):
        with pytest.raises(ValueError, match=r"grid must be in \[4, 96\]"):
            SolverOptions(grid=grid)


def test_newton_refine_converges_to_ellipse_square(ellipse21):
    target = 2 / np.sqrt(5)
    sol = newton_refine(ellipse21, ellipse_square_angles(2, 1) + 0.05)
    assert np.abs(np.abs(sol.config.points) - target).max() < 1e-9
    assert sol.transverse
    assert sol.residual_norm < 1e-12
    assert ordered_component_check(sol.theta)


def test_axis_rhombus_seed_rejected_but_grid_still_finds_square(ellipse21):
    # the symmetric axis rhombus is a critical seed: Newton slides onto the
    # collapsed-diagonal root (theta -> (0, pi, 2pi, pi)), which the ordered /
    # separation guards reject; plenty of other seeds reach the square
    with pytest.raises((LeftOrderedComponent, NearBoundary)):
        newton_refine(ellipse21, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    report = find_all(ellipse21, SolverOptions(grid=8))
    assert len(report.classes) == 1
    assert np.abs(np.abs(report.classes[0].config.points) - 2 / np.sqrt(5)).max() < 1e-9


def test_newton_refine_circle_not_transverse(unit_circle):
    sol = newton_refine(unit_circle, [0.2, 1.7, 3.3, 4.8])
    assert not sol.transverse
    assert sol.residual_norm < 1e-12


def test_newton_refine_error_paths(ellipse21):
    with pytest.raises(ValueError):
        newton_refine(ellipse21, [1.0, 0.5, 2.0, 3.0])  # not ordered
    with pytest.raises(Divergence):
        newton_refine(
            ellipse21, [0.2, 1.8, 3.9, 5.3], SolverOptions(max_iters=1, tol_residual=1e-14)
        )
    with pytest.raises(NearBoundary):
        newton_refine(ellipse21, [1.0, 2.0, 4.2, 5.2], SolverOptions(sep_guard=0.9))
    # this seed converges onto a reversed (clockwise) root
    with pytest.raises(LeftOrderedComponent):
        newton_refine(ellipse21, [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    # coincident points: the seed has no finite residual, so Newton never starts
    with pytest.raises(Divergence) as info:
        newton_refine(ellipse21, [0, 1e-12, 2, 4])
    assert type(info.value) is Divergence


@pytest.mark.filterwarnings("error")
def test_newton_refine_rejects_non_finite_seed(ellipse21):
    # an infinite angle reduces to nan, which no rotation orders
    with pytest.raises(ValueError, match="ordered component"):
        newton_refine(ellipse21, [0, 1, 2, np.inf])


def test_newton_refine_singular_jacobian_during_iteration(unit_circle):
    # every circle Jacobian is singular, so a seed that cannot converge in one
    # iteration stalls with the pseudo-inverse flag set
    with pytest.raises(SingularJacobianDuringIteration):
        newton_refine(
            unit_circle, [0.2, 1.7, 3.3, 4.8], SolverOptions(max_iters=1, tol_residual=1e-14)
        )


def test_seed_that_leaves_ordered_component_stops_there(ellipse21):
    # Newton from this seed passes through unordered angles on its way to the
    # ellipse's square; it is dropped where it leaves, not iterated back
    seed = np.array([0, 1, 2, 8]) * np.pi / 12
    thetas, norms, status, _ = _newton_batch(ellipse21, seed[None, :], SolverOptions())
    assert status[0] == _STATUS_LEFT_ORDERED
    assert norms[0] > 1.0
    assert not ordered_component_check(thetas[0])
    with pytest.raises(LeftOrderedComponent, match="left the ordered component"):
        newton_refine(ellipse21, seed)


def test_newton_batch_work_on_ellipse(ellipse21, monkeypatch):
    # most of the 10,626 seeds leave the ordered component within a few
    # iterations and stop there
    rows = count_rows(monkeypatch, solver, "_newton_step", axis=-1)
    _newton_batch(ellipse21, seed_grid(24), SolverOptions())
    assert sum(rows) <= 50_000


def test_line_search_splits_only_searches_of_more_than_split_rows(ellipse21, monkeypatch):
    # each Newton iteration takes one Jacobian kernel call, then one residual
    # kernel call for the full step.  The rows it does not improve try all ten
    # halvings in one more call when at most _SPLIT_ROWS of them miss; when
    # more do, k = 1..3 in one call, then k = 4..10 in a last call for only
    # the rows that none of k = 1..3 improved
    residual_kernel, jacobian_kernel = solver._residual_kernel, solver._jacobian_kernel
    runs = []  # per iteration: the norms at the Jacobian's rows, then each residual call's

    def jacobian(pts, tan):
        runs.append([residual_kernel(pts, ellipse21.diameter)[1]])
        return jacobian_kernel(pts, tan)

    def residual(pts, diameter):
        out = residual_kernel(pts, diameter)
        if runs:  # not the initial residual of the seeds
            runs[-1].append(out[1])
        return out

    monkeypatch.setattr(solver, "_jacobian_kernel", jacobian)
    monkeypatch.setattr(solver, "_residual_kernel", residual)
    # the full seed grid, so that both small and large line searches run
    thetas, _, status, _ = _newton_batch(ellipse21, seed_grid(24), SolverOptions())
    canon = _canonical_batch(thetas[status == _STATUS_CONVERGED])
    assert len(np.unique(_cluster_labels(canon, 1e-6))) == 1
    assert len(runs) > 10
    kinds = set()
    for norms, full, *halvings in runs:
        assert full.shape == norms.shape
        missed = norms[~(full < norms)]
        if not missed.size:
            assert halvings == []
        elif missed.size <= solver._SPLIT_ROWS:
            (block,) = halvings
            assert block.size == 10 * missed.size
            kinds.add("one call")
        else:
            first, *rest = halvings
            assert first.size == 3 * missed.size
            left = missed[~(first.reshape(3, -1) < missed).any(axis=0)]
            assert len(rest) == (left.size > 0)
            if left.size:
                assert rest[0].size == 7 * left.size
                kinds.add("two calls")
    assert kinds == {"one call", "two calls"}


@pytest.mark.parametrize("name", ["wiggly8", "trefoil", "circle"])
def test_newton_batch_is_the_same_split_or_not(name, monkeypatch):
    curve = {"wiggly8": wiggly8(), "trefoil": trefoil(), "circle": make_ellipse(1, 1)}[name]
    seeds = seed_grid(24)
    default = _newton_batch(curve, seeds, SolverOptions())
    for split_rows in (0, 10**9):  # every search split, and none
        monkeypatch.setattr(solver, "_SPLIT_ROWS", split_rows)
        for a, b in zip(_newton_batch(curve, seeds, SolverOptions()), default):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def test_split_line_search_evaluates_fewer_points(ellipse21, monkeypatch):
    # most rows that miss the full step take k <= 3: the split spares the
    # other seven fractions of each (314,292 against 490,636 points)
    points = []
    inner = Curve.eval

    def counting(self, theta):
        points.append(np.size(theta))
        return inner(self, theta)

    monkeypatch.setattr(Curve, "eval", counting)
    _newton_batch(ellipse21, seed_grid(24), SolverOptions())
    split = sum(points)
    points.clear()
    monkeypatch.setattr(solver, "_SPLIT_ROWS", 10**9)
    _newton_batch(ellipse21, seed_grid(24), SolverOptions())
    assert split <= 0.75 * sum(points)


def golden_curves() -> dict:
    """Perturbed ellipses and perturbed circles in R^3, by name."""
    ellipse = make_ellipse(2, 1)
    curves = {f"p05-{s}": perturb(ellipse, 0.05, 5, seed=s) for s in range(1, 16)}
    curves.update({f"p10-{s}": perturb(ellipse, 0.10, 6, seed=s) for s in range(1, 8)})
    for s in range(1, 5):
        rng = np.random.default_rng(s)
        cos_c = np.zeros((3, 3))
        sin_c = np.zeros((3, 3))
        cos_c[0, 0] = sin_c[1, 0] = 1.0
        cos_c += 0.15 * rng.uniform(-1, 1, size=(3, 3))
        sin_c += 0.15 * rng.uniform(-1, 1, size=(3, 3))
        curves[f"r3-{s}"] = Curve(np.zeros(3), cos_c, sin_c)
    return curves


#: default find_all class count and parity on ``golden_curves``, recorded
#: with every seed iterated to the end: dropping seeds that leave the
#: ordered component must not lose a class
GOLDEN_CLASSES = {
    **{f"p05-{s}": (1, "odd") for s in range(1, 16)},
    **{f"p10-{s}": (1, "odd") for s in range(1, 8)},
    "r3-1": (1, "odd"),
    "r3-2": (1, "odd"),
    "r3-3": (3, "odd"),
    "r3-4": (1, "odd"),
}


def test_golden_class_sets():
    curves = golden_curves()
    assert sorted(curves) == sorted(GOLDEN_CLASSES)
    for name, curve in curves.items():
        report = find_all(curve)
        assert (len(report.classes), report.parity) == GOLDEN_CLASSES[name], name
        assert report.degeneracy_flags == [], name


def test_quotient_dedup_cyclic_relabelings(ellipse21):
    sol = newton_refine(ellipse21, ellipse_square_angles(2, 1))
    rolled = [
        type(sol)(
            theta=np.roll(sol.theta, -s),
            config=sol.config,
            residual_norm=sol.residual_norm,
            jac_det=sol.jac_det,
            transverse=sol.transverse,
            min_separation=sol.min_separation,
        )
        for s in range(4)
    ]
    assert len(quotient_dedup(rolled, radius=1e-6)) == 1


def test_quotient_dedup_near_duplicates_and_empty(ellipse21):
    sol = newton_refine(ellipse21, ellipse_square_angles(2, 1))
    wiggled = type(sol)(
        theta=sol.theta + 1e-9,
        config=sol.config,
        residual_norm=sol.residual_norm,
        jac_det=sol.jac_det,
        transverse=sol.transverse,
        min_separation=sol.min_separation,
    )
    assert len(quotient_dedup([sol, wiggled], radius=1e-6)) == 1
    assert quotient_dedup([], radius=1e-6) == []
    # nan fails every comparison, so a "radius <= 0" test would let it through
    # below the floor, one root's copies split into classes, or quantize past int64
    for radius in (0.0, -1e-6, np.nan, np.inf, 1e-20):
        with pytest.raises(ValueError, match="dedup_radius must be finite and >= 1e-10"):
            quotient_dedup([sol], radius=radius)


def test_quotient_dedup_canonicalises_theta(ellipse21):
    sol = newton_refine(ellipse21, ellipse_square_angles(2, 1))
    rolled = replace(sol, theta=np.roll(sol.theta, 1))
    (rep,) = quotient_dedup([rolled])
    assert np.array_equal(rep.theta, canonical_theta(rolled.theta))
    assert rep.config is sol.config and rep.jac_det == sol.jac_det


def test_quotient_dedup_wraparound(ellipse21):
    sol = newton_refine(ellipse21, ellipse_square_angles(2, 1))

    def with_theta(th):
        return type(sol)(
            theta=np.asarray(th, dtype=float),
            config=sol.config,
            residual_norm=sol.residual_norm,
            jac_det=sol.jac_det,
            transverse=sol.transverse,
            min_separation=sol.min_separation,
        )

    a = with_theta([1e-10, 1.0, 2.0, 3.0])
    b = with_theta([TWO_PI - 1e-10, 1.0 - 2e-10, 2.0 - 2e-10, 3.0 - 2e-10])
    assert class_distance(a.theta, b.theta) < 1e-6
    assert len(quotient_dedup([a, b], radius=1e-6)) == 1


def test_canonical_theta_and_class_distance():
    th = np.array([4.0, 5.0, 0.5, 2.0])
    canon = canonical_theta(th)
    assert canon[0] == pytest.approx(0.5)
    assert class_distance(th, np.roll(th, 2)) < 1e-15
    assert class_distance([0, 1, 2, 3], [0.5, 1, 2, 3]) == pytest.approx(0.5)


def test_canonical_theta_maps_an_angle_just_below_zero_to_zero():
    # np.mod(-1e-17, 2pi) rounds up to 2pi itself, which is the angle 0
    assert np.array_equal(canonical_theta([-1e-17, 1, 2, 3]), [0.0, 1.0, 2.0, 3.0])


@settings(max_examples=200)
@given(
    st.lists(
        st.floats(min_value=-20.0, max_value=20.0)
        | st.sampled_from([-1e-17, -0.0, TWO_PI, -TWO_PI, TWO_PI - 1e-16]),
        min_size=4,
        max_size=4,
    )
)
def test_canonical_theta_is_idempotent_in_zero_to_two_pi(angles):
    canon = canonical_theta(angles)
    assert np.all((0.0 <= canon) & (canon < TWO_PI))
    assert canon[0] == canon.min()
    assert np.array_equal(canonical_theta(canon), canon)


def test_find_all_ellipse(ellipse21):
    report = find_all(ellipse21)
    assert len(report.classes) == 1
    assert report.labeled_count == 4
    assert report.parity == "odd"
    assert report.all_transverse
    assert report.degeneracy_flags == []
    sol = report.classes[0]
    assert sol.jac_det == pytest.approx(30.0, abs=1e-6)
    assert np.abs(np.abs(sol.config.points) - 2 / np.sqrt(5)).max() < 1e-9


def test_find_all_circle_withholds_parity(unit_circle):
    report = find_all(unit_circle)
    assert not report.all_transverse
    assert report.parity == "withheld"
    assert "NonTransverse" in report.degeneracy_flags


def test_find_all_three_lobe(three_lobe):
    report = find_all(three_lobe)
    assert len(report.classes) == 3
    assert report.parity == "odd"
    assert report.all_transverse


def test_find_all_withholds_parity_when_it_finds_no_class(three_lobe):
    # too few iterations, or a tolerance below the residual's rounding, leave
    # no root converged: an odd count is promised, so 0 classes prove nothing
    for opts in (SolverOptions(max_iters=3), SolverOptions(tol_residual=1e-16)):
        report = find_all(three_lobe, opts)
        assert report.parity == "withheld", opts
        assert (report.classes, report.degeneracy_flags) == ([], ["IncompleteSuspected"]), opts


FLAGS = ("NearBoundary", "NonTransverse", "ContinuumSuspected", "IncompleteSuspected")


@pytest.mark.parametrize("count", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "flags", [[], *([f] for f in FLAGS), list(FLAGS)], ids=lambda f: "+".join(f) or "none"
)
def test_report_parity_follows_its_flags_and_count(count, flags):
    # the verdict is derived, so no report can state a parity its flags contradict
    report = SolveReport([SimpleNamespace(transverse=True)] * count, flags)
    assert report.parity == ("withheld" if flags else ("even", "odd")[count % 2])
    assert report.all_transverse and report.labeled_count == 4 * count


def test_report_is_transverse_when_every_class_is():
    classes = [SimpleNamespace(transverse=t) for t in (True, False, True)]
    assert not SolveReport(classes, ["NonTransverse"]).all_transverse
    assert SolveReport(classes[:1]).all_transverse


def test_cyclic_completeness(three_lobe):
    report = find_all(three_lobe)
    reps = [s.theta for s in report.classes]
    for rep in reps:
        for s in range(1, 4):
            relabeled = np.roll(rep, -s)
            sol = newton_refine(three_lobe, relabeled)
            assert min(class_distance(sol.theta, r) for r in reps) < 1e-9


def test_find_all_deterministic(three_lobe):
    r1 = find_all(three_lobe)
    r2 = find_all(three_lobe)
    assert len(r1.classes) == len(r2.classes)
    for a, b in zip(r1.classes, r2.classes):
        assert np.array_equal(a.theta, b.theta)
        assert a.jac_det == b.jac_det
    assert r1.degeneracy_flags == r2.degeneracy_flags


def test_find_all_flags_near_boundary_roots(ellipse21):
    # the guard rejects the ellipse's one square, whose separation is 0.45 of the diameter
    report = find_all(ellipse21, SolverOptions(sep_guard=0.9))
    assert report.degeneracy_flags == ["NearBoundary"]
    assert report.classes == []
    assert report.parity == "withheld"


def test_find_all_extra_seeds(ellipse21):
    report = find_all(
        ellipse21, SolverOptions(grid=4), extra_seeds=[ellipse_square_angles(2, 1)]
    )
    assert len(report.classes) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "seed", [[0, 0, 1, 2], [0, 1, 1, 3], [np.nan, 1, 2, 3], [0, 1, 2, np.inf]]
)
def test_find_all_skips_degenerate_extra_seed(ellipse21, seed):
    # coincident or non-finite angles have no residual to step from
    expected = find_all(ellipse21)
    report = find_all(ellipse21, extra_seeds=[seed])
    assert (report.parity, report.degeneracy_flags) == (expected.parity, expected.degeneracy_flags)
    assert len(report.classes) == len(expected.classes) == 1
    for got, want in zip(report.classes, expected.classes):
        assert np.array_equal(got.theta, want.theta)
        assert (got.jac_det, got.transverse) == (want.jac_det, want.transverse)


def wiggly8() -> Curve:
    return perturb(make_ellipse(2, 1), 0.12, 8, seed=3)


def trefoil() -> Curve:
    """(sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t)."""
    return Curve([0, 0, 0], [[0, 0, 0], [1, -2, 0], [0, 0, 0]], [[1, 2, 0], [0, 0, 0], [0, 0, -1]])


@pytest.mark.parametrize("name", ["ellipse", "three-lobe", "trefoil"])
def test_find_all_runs_each_repeated_seed_once(name, three_lobe, monkeypatch):
    # the two numberings of a lattice share most minima; fed again as extra
    # seeds, the scan's own rows change neither Newton's rows nor the answer
    curve = {"ellipse": make_ellipse(2, 1), "three-lobe": three_lobe, "trefoil": trefoil()}[name]
    seeds = solver._scan_seeds(curve, SolverOptions().grid)
    rows = []
    inner = solver._newton_batch

    def counting(curve, seeds, opts):
        rows.append(len(seeds))
        return inner(curve, seeds, opts)

    monkeypatch.setattr(solver, "_newton_batch", counting)
    plain = find_all(curve)
    again = find_all(curve, extra_seeds=seeds)
    assert rows[0] == rows[1] < len(seeds)
    assert len(np.unique(np.mod(seeds, 2 * np.pi), axis=0)) == rows[0]
    assert (plain.parity, plain.degeneracy_flags) == (again.parity, again.degeneracy_flags)
    assert len(plain.classes) == len(again.classes) > 0
    for a, b in zip(plain.classes, again.classes):
        for field in ("theta", "residual_norm", "jac_det", "transverse", "min_separation"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_find_all_wiggly8_finds_its_small_classes():
    # two of the three classes have minimum vertex separations of 0.0122 and
    # 0.0068 of the diameter, inside two small loops of this perturbation;
    # the lattice alone does not resolve them, the windows do
    report = find_all(wiggly8())
    assert len(report.classes) == 3
    assert report.all_transverse
    assert report.parity == "odd"
    assert min(s.min_separation for s in report.classes) < 0.01


def test_wiggly8_is_not_embedded():
    # its small classes lie inside two small loops where the curve crosses
    # itself; find_all runs no embedding check, continuation's would reject it
    curve = wiggly8()
    check = regularity_and_embedding_check(curve)
    assert check["min_self_distance"] < EMBED_GUARD * curve.diameter


@pytest.mark.xfail(strict=True, reason="the lattice and window scan miss this class")
def test_find_all_finds_the_small_class_of_ellipse36():
    # a simple perturbed ellipse; a window threshold of 0.9 finds a second,
    # transverse class of separation 0.0081 of the diameter, above SIZE_FLOOR,
    # which makes the parity even, so at least one more class is missed too
    report = find_all(perturb(make_ellipse(2, 1), 0.08, 10, seed=36))
    assert len(report.classes) >= 2
    assert any(
        s.transverse and s.min_separation == pytest.approx(0.0081, abs=1e-4)
        for s in report.classes
    )


def ellipse46() -> Curve:
    """A simple perturbed ellipse with five roots within 0.5 rad of each other.

    They sit a lattice step or two apart near a double fold: the 24-lattice
    alone gives four of them, the half-step offset samples separate the fifth.
    """
    return perturb(make_ellipse(2, 1), 0.08, 8, seed=46)


def phase_shifted(curve: Curve, shift: float) -> Curve:
    """The curve theta -> gamma(theta + shift)."""
    h = np.arange(1, curve.harmonics + 1) * shift
    a, b = curve.cos_coeffs, curve.sin_coeffs
    return Curve(curve.a0, a * np.cos(h) + b * np.sin(h), b * np.cos(h) - a * np.sin(h))


@pytest.mark.parametrize(
    "name, expected",
    [
        ("trefoil", (15, "odd")),
        ("wiggly8", (3, "odd")),
        ("three-lobe", (3, "odd")),
        ("ellipse46", (5, "odd")),
    ],
)
def test_class_count_invariant_under_reparametrisation_and_scaling(name, expected, three_lobe):
    curve = {
        "trefoil": trefoil(),
        "wiggly8": wiggly8(),
        "three-lobe": three_lobe,
        "ellipse46": ellipse46(),
    }[name]
    # the shifts spread over the circle and move the lattice and the window
    # samples to different offsets along the curve
    variants = {"as given": curve}
    variants.update({f"shift {j}": phase_shifted(curve, 0.05 + 0.53 * j) for j in range(12)})
    variants["reversed"] = Curve(curve.a0, curve.cos_coeffs, -curve.sin_coeffs)
    for scale in (1e-3, 1e3):
        variants[f"scaled {scale:g}"] = Curve(
            scale * curve.a0, scale * curve.cos_coeffs, scale * curve.sin_coeffs
        )
    # a planar rotation for planar curves, a rotation of R^3 for trefoil
    rng = np.random.default_rng(70)
    for j in range(3):
        rotation = random_rotation(curve.dim, rng)
        shift = rng.uniform(-5.0, 5.0, size=curve.dim)
        variants[f"rigid motion {j}"] = Curve(
            rotation @ curve.a0 + shift, rotation @ curve.cos_coeffs, rotation @ curve.sin_coeffs
        )
    # isometric embeddings into R^4: zero coordinates, then a rotation of R^4,
    # then a translation
    a0, cos_c, sin_c = (
        np.concatenate([c, np.zeros((4 - curve.dim,) + c.shape[1:])])
        for c in (curve.a0, curve.cos_coeffs, curve.sin_coeffs)
    )
    rotation = random_rotation(4, rng)
    shift = rng.uniform(-5.0, 5.0, size=4)
    variants["R^4 padded"] = Curve(a0, cos_c, sin_c)
    variants["R^4 rotated"] = Curve(rotation @ a0, rotation @ cos_c, rotation @ sin_c)
    variants["R^4 rotated and shifted"] = Curve(
        rotation @ a0 + shift, rotation @ cos_c, rotation @ sin_c
    )
    for label, variant in variants.items():
        report = find_all(variant)
        assert (len(report.classes), report.parity) == expected, label
        assert report.degeneracy_flags == [], label


def test_find_all_far_from_the_origin_keeps_its_answers(three_lobe):
    # 100 diameters out in every coordinate, well inside the 1e3 bound of ``Curve``
    ellipse = make_ellipse(2, 1)
    curves = {
        "ellipse": (ellipse, 1),
        "three-lobe": (three_lobe, 3),
        "perturbed7": (perturb(ellipse, 0.05, 5, seed=7), 1),
        "trefoil": (trefoil(), 15),
    }
    for name, (curve, count) in curves.items():
        moved = Curve(curve.a0 + 100 * curve.diameter, curve.cos_coeffs, curve.sin_coeffs)
        report = find_all(moved)
        assert (len(report.classes), report.parity, report.degeneracy_flags) == (
            count, "odd", []
        ), name


def test_continuum_suspected_flag(unit_circle):
    # coarse dedup radius widens the suspicion window past the continuum's
    # root spacing, so neighboring non-transverse classes trip the flag
    report = find_all(unit_circle, SolverOptions(grid=8, dedup_radius=1e-3))
    assert "NonTransverse" in report.degeneracy_flags
    assert "ContinuumSuspected" in report.degeneracy_flags


def test_find_does_not_import_scipy_optimize():
    # scipy.optimize would dominate the package's import time: importing the
    # package and solving must load none of it, scipy.spatial and
    # scipy.sparse (test_cli.py guards track and the CLI against all scipy)
    code = (
        "import sys\n"
        "import squarepeg\n"
        "squarepeg.find_all(squarepeg.make_ellipse(2, 1), squarepeg.SolverOptions(grid=8))\n"
        "print(*(f'scipy.{m}' in sys.modules for m in ('optimize', 'spatial', 'sparse')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False False False"
