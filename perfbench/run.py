"""Benchmark of squarepeg, run from the root of a checkout.

    python3 perfbench/run.py --workload find-suite --seed 2021 --seconds 30 --trace 0

Workloads (closed loop: one caller that waits for each result, one process
and no worker pools; BLAS pinned to one thread):

  find-suite  default ``find_all`` on the six reference curves plus seeded
              perturbed ellipses.
  track       ``track`` ellipse -> three-lobe (64 steps) plus ellipse -> a
              seeded perturbed ellipse.
  cli-cold    sequential ``python -m squarepeg.cli find`` children on the
              ellipse and three-lobe JSON files, writing JSON, CSV and SVG.

``--trace 0`` times the workload with no wrappers and reports the end-to-end
metrics: ``pass_rel`` (one pass over the workload's operations, as the sum
of each operation's median over the passes that fit in ``--seconds``, each
time divided by that of a fixed ``Yardstick`` kernel run beside it),
``setup_s`` (median of several cold set-ups in child processes) and
``peak_rss_mb``.  The same pass in plain seconds (find_suite_s, track_s or
cli_find_s) is printed beside ``pass_rel``.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from
spans around the package's public names (see ``spans.py``), the tracing
overhead and the failure ratio.  Every answer is checked against
``references.json`` or, for seeded inputs, against the parity rules.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run details go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 2021

#: one BLAS thread: the kernels are batched 4x4 solves and thin matmuls, and a
#: second thread on a shared 2-core machine adds noise, not speed
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: cold set-ups measured per run; setup_s is their median
SETUP_SAMPLES = 7

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 60

WORKLOADS = {
    "find-suite": "default find_all on the reference curves and seeded ellipses: "
    "10,626-seed batches, so the residual/Jacobian kernels and Curve.eval/deriv dominate",
    "track": "track ellipse->three-lobe and ellipse->seeded ellipse: 73+ small solves "
    "where per-call overhead, curve construction and the embedding check matter",
    "cli-cold": "cold squarepeg find children: the only path that pays the package "
    "import, the JSON load and the JSON/CSV/SVG writers",
}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


def run_child(argv: list, stdout_path: Path) -> tuple:
    """(wall seconds from spawn to exit, exit code, peak RSS in MB) of one child."""
    with open(stdout_path, "w") as out, open(OUT / "child.stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        path = OUT / "setup.out"
        _, code, _ = run_child(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)], path
        )
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: {child_stderr()}")
        samples.append(json.loads(path.read_text())["setup_s"])
    return samples


def child_stderr() -> str:
    return (OUT / "child.stderr").read_text()[-2000:]


# ---------------------------------------------------------------------------
# workloads: each operation returns (seconds, outcome) with outcome
# ("ok" | "failed" | "known" | "excluded", note)


def _program_error(exc: BaseException) -> tuple:
    last = traceback.extract_tb(exc.__traceback__)[-1]
    return "failed", f"raised {type(exc).__name__}: {exc} ({last.filename}:{last.lineno})"


class FindSuite:
    in_process = True
    yardstick = (10626,)  # seeds of the default 24-grid

    def __init__(self, seed: int):
        import suite

        self.suite = suite
        self.curves = suite.find_suite_curves(seed)
        self.labels = list(self.curves)
        self.refs = suite.load_references()

    def warm_up(self) -> None:
        self.suite.sp.find_all(self.curves["ellipse"])

    def run(self, label: str, tracer) -> tuple:
        sp = self.suite.sp
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = sp.find_all(self.curves[label])
            else:
                with tracer.span("solver.find_all", curve=label) as attrs:
                    report = sp.find_all(self.curves[label])
                    attrs.update(extra_seeds=0, classes=len(report.classes))
        except Exception as exc:  # a raising solve is a failed operation
            return time.perf_counter() - t0, _program_error(exc)
        elapsed = time.perf_counter() - t0
        return elapsed, self.check(label, self.suite.answer_from_report(report))

    def check(self, label: str, answer: dict) -> tuple:
        suite = self.suite
        if label in suite.REFERENCE_NAMES:
            why = suite.check_reference(label, answer, self.refs)
            if why is None:
                return "ok", ""
            return ("known" if suite.is_known_defect(label, answer, self.refs) else "failed"), why
        why, checked = suite.check_seeded_planar(answer)
        if not checked:
            return "excluded", "non-transverse class: no parity rule"
        return ("ok", "") if why is None else ("failed", why)


class Track:
    in_process = True
    yardstick = (500, 1024)  # a 12-grid scan, and the embedding check per step

    def __init__(self, seed: int):
        import suite

        self.suite = suite
        self.paths = {p[0]: p[1:] for p in suite.track_paths(seed)}
        self.labels = list(self.paths)
        self.refs = suite.load_references()

    def warm_up(self) -> None:
        self.suite.sp.find_all(self.paths[self.labels[0]][0])

    def run(self, label: str, tracer) -> tuple:
        sp = self.suite.sp
        c0, c1, steps = self.paths[label]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                trace = sp.track(c0, c1, steps=steps)
            else:
                with tracer.span("continuation.track", steps=steps):
                    trace = sp.track(c0, c1, steps=steps)
        except sp.errors.NonTransversePath as exc:
            elapsed = time.perf_counter() - t0
            if label != self.suite.FIXED_TRACK and exc.t == 1.0:
                # criterion 9 covers transverse paths only, as criterion 6 does
                return elapsed, ("excluded", "seeded end curve is non-transverse")
            return elapsed, _program_error(exc)
        except Exception as exc:  # a raising track is a failed operation
            return time.perf_counter() - t0, _program_error(exc)
        elapsed = time.perf_counter() - t0
        if label == self.suite.FIXED_TRACK:
            why = self.suite.check_track(trace, self.refs, label)
        else:
            why = self.suite.check_track(trace)
        return elapsed, ("ok", "") if why is None else ("failed", why)


class CliCold:
    in_process = False
    yardstick = (10626,)

    def __init__(self, seed: int):
        import suite

        self.suite = suite
        self.files = suite.cli_curve_files()
        self.labels = list(self.files)
        self.refs = suite.load_references()
        self.rss_mb = []

    def warm_up(self) -> None:
        self.run(self.labels[0], None)
        self.rss_mb.clear()

    def run(self, label: str, tracer) -> tuple:
        outputs = {ext: OUT / f"cli-{label}.{ext}" for ext in ("json", "csv", "svg")}
        for path in outputs.values():
            path.unlink(missing_ok=True)
        args = ["find", "--curve", str(self.files[label])]
        for ext, path in outputs.items():
            args += [f"--{ext}", str(path)]
        if tracer is None:
            argv = [sys.executable, "-m", "squarepeg.cli"] + args
        else:
            spans_path = OUT / f"cli-{label}.spans.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path)] + args
        wall, code, rss = run_child(argv, OUT / "cli.stdout")
        self.rss_mb.append(rss)
        if tracer is not None and spans_path.exists():
            # the child's spans join the parent's trace of this pass
            tracer.spans += spans.offset_spans(json.loads(spans_path.read_text()), len(tracer.spans))
        return wall, self.check(label, code, outputs)

    def check(self, label: str, code: int, outputs: dict) -> tuple:
        if code != 0:
            return "failed", f"exit code {code}: {child_stderr()}"
        missing = [str(p) for p in outputs.values() if not p.is_file() or p.stat().st_size == 0]
        if missing:
            return "failed", f"missing output {missing}"
        try:
            answer = self.suite.answer_from_json(json.loads(outputs["json"].read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            return "failed", f"unreadable JSON report: {exc}"
        why = self.suite.check_reference(label, answer, self.refs)
        return ("ok", "") if why is None else ("failed", why)


WORKLOAD_CLASSES = {"find-suite": FindSuite, "track": Track, "cli-cold": CliCold}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Outcome counts over every operation run, with the failures' notes."""

    def __init__(self):
        self.counts = dict.fromkeys(("ok", "failed", "known", "excluded"), 0)
        self.notes = {}

    def add(self, label: str, outcome: tuple) -> None:
        status, note = outcome
        self.counts[status] += 1
        if note:
            self.notes.setdefault(f"{label}: {status}", note)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts["failed"] + self.counts["known"]


class Yardstick:
    """A fixed numpy and interpreter kernel shaped like Newton iterations of
    ``find_all`` on ``seeds`` seeds, timed between operations.

    On a shared 2-vCPU VM the CPU speed was seen to drift between two states
    about 1.45x apart, for tens of seconds to minutes at a time, with no
    steal time or load visible inside the VM.  An operation's time divided
    by the yardstick's time around it cancels most of that drift.  Each
    workload sizes the batch like its own solves, so that per-call overhead
    weighs in the yardstick as it does in the workload; every size handles
    about 42,500 seeds per call.  ``samples`` adds one O(n^2) self-distance
    scan like the per-step embedding check.
    """

    def __init__(self, seeds: int, samples: int = 0):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.reps = max(1, 42504 // seeds)
        self.theta = rng.uniform(0.0, 2.0 * np.pi, size=seeds * 4)
        self.harmonics = np.arange(1, 9)
        self.coeffs = rng.normal(size=(8, 2))
        self.ring = rng.normal(size=(samples, 2))

    def _kernel(self) -> None:
        np = self.np
        ang = np.multiply.outer(self.theta, self.harmonics)
        pts = (np.cos(ang) @ self.coeffs + np.sin(ang) @ self.coeffs).reshape(-1, 4, 2)
        d = np.stack([np.linalg.norm(pts[:, i] - pts[:, j], axis=1)
                      for i, j in ((0, 1), (0, 3), (1, 2), (2, 3), (0, 2), (1, 3))], axis=1)
        jac = d[:, :4, None] * d[:, 2:, None].transpose(0, 2, 1) + np.eye(4)
        np.linalg.det(jac)
        np.linalg.solve(jac, d[:, :4, None])
        counts = {}
        for k in range(self.theta.size // 14):
            counts[k % 97] = counts.get(k % 97, 0) + k

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(self.reps):
            self._kernel()
        for start in range(0, len(self.ring), 256):
            np.linalg.norm(self.ring[start : start + 256, None, :] - self.ring[None], axis=2).min()
        return time.perf_counter() - t0


def run_pass(work, tracer, tally: Tally, yardstick=None) -> tuple:
    """Seconds of each operation and, with ``yardstick``, the same in yardsticks."""
    seconds, relative = {}, {}
    before = yardstick() if yardstick else 0.0
    for label in work.labels:
        seconds[label], outcome = work.run(label, tracer)
        tally.add(label, outcome)
        if yardstick:
            after = yardstick()
            relative[label] = seconds[label] / (0.5 * (before + after))
            before = after
    return seconds, relative


def pass_total(samples: list) -> float:
    """Sum over operations of each one's median over the passes."""
    return sum(statistics.median(s[label] for s in samples) for label in samples[0])


def measure(work, seconds: float, tally: Tally) -> tuple:
    """Untraced passes until the next one would end after ``seconds``; at least one.

    Returns the per-pass seconds and yardstick ratios of every operation.
    """
    yardstick = Yardstick(*work.yardstick)
    plain, relative = [], []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        secs, rel = run_pass(work, None, tally, yardstick)
        plain.append(secs)
        relative.append(rel)
        now = time.perf_counter()
        if now - start + (now - p0) > seconds:
            return plain, relative


def measure_traced(work, seconds: float, tally: Tally, setup_spans: list) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics of each traced pass.

    Also returns the spans of the first traced pass, after the set-up spans.
    """
    plain, traced, layers, first_spans = [], [], [], None
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        plain.append(run_pass(work, None, tally)[0])
        tracer = spans.Tracer()
        if work.in_process:
            spans.install_library(tracer)
        try:
            traced.append(run_pass(work, tracer, tally)[0])
        finally:
            tracer.uninstall()
        pass_spans = setup_spans + spans.offset_spans(tracer.spans, len(setup_spans))
        layers.append(spans.layer_metrics(pass_spans, work.suite.REFERENCE_NAMES))
        first_spans = first_spans or pass_spans
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return plain, traced, layers, first_spans


# ---------------------------------------------------------------------------
# reporting


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": git_rev(),
    }


PASS_ALIAS = {"find-suite": "find_suite_s", "track": "track_s", "cli-cold": "cli_find_s"}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "squarepeg" / "__init__.py").is_file():
        print(f"error: no squarepeg sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import suite  # noqa: F401  (the package import stays outside the spans)

        tracer = spans.Tracer()
        if WORKLOAD_CLASSES[args.workload].in_process:
            spans.install_library(tracer)
        try:
            work = WORKLOAD_CLASSES[args.workload](args.seed)
        finally:
            tracer.uninstall()
        work.warm_up()
        plain, traced, layers, first_spans = measure_traced(
            work, args.seconds, tally, tracer.spans
        )
        with open(stem.with_suffix(".spans.json"), "w") as fh:
            json.dump(first_spans, fh)
        untraced_s = pass_total(plain)
        metrics = {
            name: metric(statistics.median_low(lm[name] for lm in layers), unit)
            for name, unit in per_layer_units(work.suite.REFERENCE_NAMES).items()
        }
        metrics["trace.overhead_ratio"] = metric(pass_total(traced) / untraced_s - 1.0, "ratio")
        metrics["fail_ratio"] = metric(tally.failed / tally.attempted, "ratio")
        bases = {
            "trace.overhead_ratio": f"untraced pass {untraced_s:.4f} s",
            "solver.useful_ratio": f"{layers[0]['solver.seeds']} seeds",
        }
        samples = {"untraced": plain, "traced": traced, "traced_passes": len(layers)}
    else:
        setup = setup_seconds(args.workload, args.seed)
        work = WORKLOAD_CLASSES[args.workload](args.seed)
        work.warm_up()
        plain, relative = measure(work, args.seconds, tally)
        if work.in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rss = max(work.rss_mb)
        metrics = {
            "pass_rel": metric(pass_total(relative), "yardstick"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }
        bases = {"pass_rel": f"{PASS_ALIAS[args.workload]} = {pass_total(plain)} s"}
        samples = {"untraced": plain, "relative": relative, "setup_s": setup}
    bases["fail_ratio"] = f"{tally.failed} of {tally.attempted} operations"

    # a known defect counts as failed but keeps the verdict; see suite.is_known_defect
    result = {
        "correct": tally.counts["failed"] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    meta = metadata(args)
    meta.update(outcomes=tally.counts, notes=tally.notes, ratio_bases=bases, samples=samples)
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(dict(meta, result=result), fh, indent=1)

    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    for key in ("seed", "python", "numpy", "scipy", "blas_threads", "nproc", "git_rev"):
        print(f"  {key}: {meta[key]}")
    print(f"  outcomes: {tally.counts}; fail_ratio = {tally.failed / tally.attempted:.4f} "
          f"ratio [{bases['fail_ratio']}]")
    for key, note in tally.notes.items():
        print(f"  {key}: {note}")
    for name, m in metrics.items():
        base = f"  [{bases[name]}]" if name in bases else ""
        print(f"  {name} = {m['value']} {m['unit']}{base}")
    print(json.dumps(result))
    return 0


def per_layer_units(curve_names) -> dict:
    units = dict(spans.LAYER_METRICS)
    for name in curve_names:
        units[f"solver.find_all.busy_s.{name}"] = "s"
    return units


if __name__ == "__main__":
    sys.exit(main())
