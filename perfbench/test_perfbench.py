"""Self-tests of the benchmark (under a minute):

    python3 -m pytest perfbench -q

They check the benchmark, not the package: counts repeat, tracing does not
change answers, a bad reference is a failed operation rather than an abort,
and the workload seed moves only the seeded inputs.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402

sp = suite.sp

COUNTS = (
    "curve.eval.calls",
    "curve.eval.points",
    "curve.deriv.calls",
    "curve.deriv.points",
    "curve.construct.calls",
    "curve.embed_check.calls",
    "solver.seeds",
    "solver.newton_seed_iters",
    "solver.classes",
    "solver.find_all.calls",
    "continuation.solves",
    "continuation.extra_solves",
)

TRACED_SOLVE = """
import json, sys
import spans, suite
tracer = spans.Tracer()
spans.install_library(tracer)
curve = suite.reference_curves()["ellipse"]
with tracer.span("solver.find_all", curve="ellipse") as attrs:
    report = suite.sp.find_all(curve)
    attrs.update(extra_seeds=0, classes=len(report.classes))
tracer.uninstall()
print(json.dumps(spans.layer_metrics(tracer.spans)))
"""


def traced_solve_counts(blas_threads: str) -> dict:
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{HERE}")
    env.update({k: blas_threads for k in run.BLAS_ENV})
    out = subprocess.run(
        [sys.executable, "-c", TRACED_SOLVE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    metrics = json.loads(out.splitlines()[-1])
    return {k: metrics[k] for k in COUNTS}


def test_layer_counts_repeat_across_runs_and_blas_threads():
    first = traced_solve_counts("1")
    assert first["curve.eval.points"] > 0 and first["solver.newton_seed_iters"] > 0
    assert traced_solve_counts("1") == first
    assert traced_solve_counts("2") == first


def traced_track(steps: int):
    tracer = spans.Tracer()
    spans.install_library(tracer)
    try:
        with tracer.span("continuation.track", steps=steps):
            trace = sp.track(sp.make_ellipse(2, 1), suite.three_lobe(), steps=steps)
    finally:
        tracer.uninstall()
    return trace, spans.layer_metrics(tracer.spans)


def test_track_counts_repeat_and_tracing_keeps_answers():
    trace_a, metrics_a = traced_track(4)
    trace_b, metrics_b = traced_track(4)
    plain = sp.track(sp.make_ellipse(2, 1), suite.three_lobe(), steps=4)
    assert {k: metrics_a[k] for k in COUNTS} == {k: metrics_b[k] for k in COUNTS}
    # 5 grid steps, plus bisection solves at t off the k/4 grid
    assert metrics_a["continuation.solves"] == 5 + metrics_a["continuation.extra_solves"]
    assert metrics_a["continuation.extra_solves"] > 0
    for trace in (trace_a, trace_b):
        assert trace.ts == plain.ts
        assert trace.class_counts == plain.class_counts
        assert [(e.kind, e.t_lo, e.t_hi) for e in trace.events] == [
            (e.kind, e.t_lo, e.t_hi) for e in plain.events
        ]
    # the spans are gone once uninstalled
    assert sp.Curve.eval.__name__ == "eval" and not hasattr(sp.Curve.eval, "__wrapped__")


def test_traced_and_untraced_find_all_agree_bit_for_bit():
    curve = suite.three_lobe()
    plain = sp.find_all(curve)
    tracer = spans.Tracer()
    spans.install_library(tracer)
    try:
        traced = sp.find_all(curve)
    finally:
        tracer.uninstall()
    assert len(plain.classes) == len(traced.classes) == 3
    for a, b in zip(plain.classes, traced.classes):
        assert np.array_equal(a.theta, b.theta) and a.jac_det == b.jac_det
    assert suite.answer_from_report(plain) == suite.answer_from_report(traced)


@pytest.fixture(scope="module")
def ellipse_answer():
    return suite.answer_from_report(sp.find_all(sp.make_ellipse(2, 1)))


def corrupted(refs: dict, how: str) -> dict:
    refs = json.loads(json.dumps(refs))
    entry = refs["curves"]["ellipse"]
    if how == "moved":
        entry["classes"][0][1] += 0.01
    elif how == "garbage":
        entry["classes"] = "garbage"
    elif how == "missing":
        del refs["curves"]["ellipse"]
    elif how == "closed_form":
        entry["closed_form"]["jac_det"] = 31.0
    return refs


@pytest.mark.parametrize("how", ["moved", "garbage", "missing", "closed_form"])
def test_corrupted_reference_is_a_failed_operation(ellipse_answer, how):
    refs = suite.load_references()
    assert suite.check_reference("ellipse", ellipse_answer, refs) is None
    why = suite.check_reference("ellipse", ellipse_answer, corrupted(refs, how))
    assert isinstance(why, str) and why


def test_corrupted_reference_file_fails_operations_without_abort():
    work = run.FindSuite(seed=1)
    work.labels = ["ellipse", "circle"]
    work.refs = suite.load_references(HERE / "data" / "ellipse.json")  # not a reference file
    tally = run.Tally()
    run.run_pass(work, None, tally)
    assert tally.counts["failed"] == 2 and tally.attempted == 2


def test_known_defect_is_failed_but_pinned():
    refs = suite.load_references()
    wrong = {"thetas": [[0.1, 1.0, 2.0, 3.0]], "parity": "odd"}
    assert suite.check_reference("wiggly8", dict(wrong, flags=[]), refs) is not None
    assert suite.is_known_defect("wiggly8", wrong, refs)
    assert not suite.is_known_defect("wiggly8", dict(wrong, thetas=wrong["thetas"] * 2), refs)
    assert not suite.is_known_defect("ellipse", wrong, refs)


def coefficients(curve) -> tuple:
    return tuple(np.concatenate([curve.a0, curve.cos_coeffs.ravel(), curve.sin_coeffs.ravel()]))


def test_seed_changes_only_the_seeded_curves():
    a, b, again = (suite.find_suite_curves(s) for s in (1, 2, 1))
    for name in suite.REFERENCE_NAMES:
        assert coefficients(a[name]) == coefficients(b[name])
    seeded_a = [coefficients(c) for n, c in a.items() if n not in suite.REFERENCE_NAMES]
    seeded_b = [coefficients(c) for n, c in b.items() if n not in suite.REFERENCE_NAMES]
    assert len(seeded_a) == suite.SEEDED_FIND_CURVES and not set(seeded_a) & set(seeded_b)
    assert [coefficients(c) for c in again.values()] == [coefficients(c) for c in a.values()]

    (fixed_a, seeded_pa), (fixed_b, seeded_pb) = suite.track_paths(1), suite.track_paths(2)
    assert fixed_a[0] == fixed_b[0] == suite.FIXED_TRACK
    assert coefficients(fixed_a[2]) == coefficients(fixed_b[2]) and fixed_a[3] == fixed_b[3]
    assert coefficients(seeded_pa[2]) != coefficients(seeded_pb[2])


def test_exits_nonzero_without_sources():
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "find-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
