import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from squarepeg import (
    Config4,
    SolverOptions,
    canonical_theta,
    class_distance,
    ellipse_dg_matrix,
    ellipse_square_angles,
    find_all,
    g_map,
    jacobian,
    newton_refine,
    ordered_component_check,
    quotient_dedup,
    residual,
    seed_grid,
)
from squarepeg.errors import (
    DegenerateConfiguration,
    Divergence,
    LeftOrderedComponent,
    NearBoundary,
    SingularJacobianDuringIteration,
)
from squarepeg.slq import G_TARGET
from squarepeg.solver import _newton_step

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


def test_newton_step_matches_solve_on_well_conditioned_rows():
    rng = np.random.default_rng(31)
    n = 500
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    jac = matrices_with_singular_values(rng, rng.uniform(0.5, 2.0, size=(n, 4)))
    jac *= scale[:, None, None]
    res = rng.normal(size=(n, 4))
    step, regular = newton_step_batch_first(jac, res)
    expected = np.linalg.solve(jac, -res[..., None])[..., 0]
    rel = np.linalg.norm(step - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert regular.all()
    assert rel.max() < 1e-12


def test_newton_step_matches_pinv_on_rank_deficient_rows(unit_circle):
    rng = np.random.default_rng(32)
    # circle Jacobians: rotating all four angles together is a null direction
    circle = [
        jacobian(unit_circle, np.sort(rng.uniform(0, TWO_PI, size=4))) for _ in range(6)
    ]
    for jac in circle:
        assert np.abs(jac @ np.ones(4)).max() < 1e-12 * np.abs(jac).max()
    near = matrices_with_singular_values(rng, [[1.0, 0.7, 0.4, 1e-11]] * 6)
    jac = np.concatenate([np.array(circle), near])
    res = rng.normal(size=(len(jac), 4))
    step, regular = newton_step_batch_first(jac, res)
    expected = pinv_step(jac, res)
    assert not regular.any()
    assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()


def test_newton_step_closed_form_on_ill_conditioned_rows(monkeypatch):
    # sigma_min / sigma_max = 1e-6: det fails the 1e-10 max|J_ij|^4 test, but
    # cond_F < 1e10 proves pinv(J, rcond=1e-10) = J^-1, so no SVD is needed
    rng = np.random.default_rng(33)
    jac = matrices_with_singular_values(rng, [[1.0, 1e-4, 1e-4, 1e-6]] * 50)
    res = rng.normal(size=(50, 4))
    expected = pinv_step(jac, res)

    def no_pinv(*args, **kwargs):
        raise AssertionError("pinv called on a row with cond_F < 1e10")

    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    step, regular = newton_step_batch_first(jac, res)
    rel = np.linalg.norm(step - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert not regular.any()
    assert rel.max() < 1e-8


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


@pytest.mark.parametrize("n", [4, 8, 24])
def test_seed_grid_matches_loop_reference(n):
    assert np.array_equal(seed_grid(n), _seed_grid_reference(n))


def test_seed_grid_contract():
    for n in (8, 24):
        seeds = seed_grid(n)
        assert len(seeds) <= n**4 / 4
        assert np.all(seeds[:, 0] < np.pi / 2)
        assert all(ordered_component_check(s) for s in seeds[:: max(1, len(seeds) // 50)])
    with pytest.raises(ValueError):
        seed_grid(3)


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


def test_newton_refine_singular_jacobian_during_iteration(unit_circle):
    # every circle Jacobian is singular, so a seed that cannot converge in one
    # iteration stalls with the pseudo-inverse flag set
    with pytest.raises(SingularJacobianDuringIteration):
        newton_refine(
            unit_circle, [0.2, 1.7, 3.3, 4.8], SolverOptions(max_iters=1, tol_residual=1e-14)
        )


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
    with pytest.raises(ValueError):
        quotient_dedup([sol], radius=0.0)


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


def test_find_all_extra_seeds(ellipse21):
    report = find_all(
        ellipse21, SolverOptions(grid=4), extra_seeds=[ellipse_square_angles(2, 1)]
    )
    assert len(report.classes) == 1


def test_continuum_suspected_flag(unit_circle):
    # coarse dedup radius widens the suspicion window past the continuum's
    # root spacing, so neighboring non-transverse classes trip the flag
    report = find_all(unit_circle, SolverOptions(grid=8, dedup_radius=1e-3))
    assert "NonTransverse" in report.degeneracy_flags
    assert "ContinuumSuspected" in report.degeneracy_flags


def test_find_does_not_import_scipy_optimize():
    # scipy.optimize dominates the package's import time; only continuation
    # needs it (and scipy.spatial, for the embedding check), so importing
    # the package and solving must load neither
    code = (
        "import sys\n"
        "import squarepeg\n"
        "squarepeg.find_all(squarepeg.make_ellipse(2, 1), squarepeg.SolverOptions(grid=8))\n"
        "print('scipy.optimize' in sys.modules, 'scipy.spatial' in sys.modules)\n"
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
    assert out.stdout.strip() == "False False"
