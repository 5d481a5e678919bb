"""One SHA-256 per input over squarepeg's answers, to show that a change keeps them.

    python3 scripts/answer_digest.py > digests.txt    # then diff two checkouts' files

``find_all``: each class's angle bytes, ``jac_det``, ``transverse``, residual
norm and minimum separation, then parity and flags.  ``scan``: the seed
bytes of the lattice and window scan at n = 24 and n = 12, so that a change
to the scan can be checked on its seeds, not only on the answers they
reach.  ``newton``: all four outputs of ``_newton_batch`` (thetas, norms,
status and singular-fallback flags) on the n = 24 scan seeds, each exactly
repeated row (after reduction mod 2pi) kept once, as ``find_all`` runs
them: a change to the Newton loop can be checked on its iterates.
``newton48``: the same at n = 48 on the reference three-lobe and trefoil,
batches of 1,823 and 3,914 rows, so that the large line searches are
checked too.  ``embed``: the curve's diameter and its regularity and
embedding check at 1,024 and 4,096 samples.  ``track``: ``ts``, the class
counts, the events and each step's class angles.  Inputs: the benchmark's
reference curves, seeded find-suite curves and track paths, the reverse path
three-lobe -> ellipse (a death), the golden curves of ``tests/test_solver.py``
and two ellipses with close roots.  ``cli``: the exit code and the
``--json`` (without ``timings``), ``--csv`` and ``--svg`` outputs of a
``squarepeg find`` child run on this checkout's sources, for each curve file
in ``perfbench/data``.  ``cli-stdout``: the exit code, the stdout report
(without ``timings``) and the stderr of such a child run with no output
file, for each of those curve files.  ``cli-withheld``: the same for ``find
--sep-guard 0.9`` on the ellipse, which withholds parity and exits 2.
``cli-strata-report`` (each of those curve files), ``cli-verify-ellipse``
(a = 2, b = 1), ``cli-equivalence`` (50 trials, seed 3) and ``cli-track``
(ellipse to three-lobe, 8 steps): the exit code, the stdout and the
``--json`` file of that command run as a child on this checkout's sources.
``index-tables``: the five ``_index_tables(n)`` arrays, with their dtypes
and shapes, for n = 8, 12, 14, 24, 32 and 48.  ``api``:
``squarepeg.__all__``, ``dir(squarepeg)`` in a fresh child before any lazy
name resolves, and the ``--help`` text of the CLI and of each subcommand at
100 columns.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import squarepeg as sp  # noqa: E402
import suite  # noqa: E402
from squarepeg.solver import (  # noqa: E402
    TWO_PI,
    SolverOptions,
    _index_tables,
    _newton_batch,
    _scan_seeds,
)
from test_solver import golden_curves  # noqa: E402


def find_digest(curve) -> str:
    report = sp.find_all(curve)
    h = hashlib.sha256()
    for s in report.classes:
        h.update(s.theta.tobytes())
        h.update(np.array([s.jac_det, s.transverse, s.residual_norm, s.min_separation]).tobytes())
    h.update(repr((report.parity, report.degeneracy_flags)).encode())
    return h.hexdigest()


def scan_digest(curve) -> str:
    h = hashlib.sha256()
    for n in (24, 12):
        seeds = _scan_seeds(curve, n)
        h.update(repr(seeds.shape).encode() + seeds.tobytes())
    return h.hexdigest()


def newton_digest(*curves, n=24) -> str:
    h = hashlib.sha256()
    for curve in curves:
        # the merge of ``find_all``, written out so that the script runs on older checkouts too
        seeds = _scan_seeds(curve, n)
        reduced = np.mod(seeds, TWO_PI)
        order = np.lexsort(reduced.T)
        repeat = np.zeros(len(seeds), dtype=bool)
        repeat[order[1:]] = (reduced[order[1:]] == reduced[order[:-1]]).all(axis=1)
        for out in _newton_batch(curve, seeds[~repeat], SolverOptions()):
            h.update(out.tobytes())
    return h.hexdigest()


def embed_digest(curve) -> str:
    checks = [sp.regularity_and_embedding_check(curve, n) for n in (1024, 4096)]
    return hashlib.sha256(repr((curve.diameter, checks)).encode()).hexdigest()


def index_tables_digest(sizes) -> str:
    h = hashlib.sha256()
    for n in sizes:
        for table in _index_tables(n):
            h.update(repr((n, table.dtype.str, table.shape)).encode() + table.tobytes())
    return h.hexdigest()


def track_digest(c0, c1, steps) -> str:
    trace = sp.track(c0, c1, steps)
    h = hashlib.sha256(np.asarray(trace.ts, dtype=float).tobytes())
    h.update(repr((trace.class_counts, trace.events)).encode())
    h.update(b"".join(s.theta.tobytes() for r in trace.reports for s in r.classes))
    return h.hexdigest()


def run_cli(*args) -> subprocess.CompletedProcess:
    """A ``squarepeg`` child on this checkout's sources, exit 0 or 2."""
    args = [str(arg) for arg in args]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "squarepeg.cli", *args]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 2):  # 2: a degenerate answer, still an answer
        sys.exit(f"squarepeg {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc


def report_bytes(text: str) -> bytes:
    """A JSON report without its ``timings``."""
    report = json.loads(text)
    del report["timings"]
    return json.dumps(report).encode()


def cli_digest(curve_file: Path) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {ext: Path(tmp) / f"out.{ext}" for ext in ("json", "csv", "svg")}
        args = [arg for ext, path in outputs.items() for arg in (f"--{ext}", str(path))]
        proc = run_cli("find", "--curve", curve_file, *args)
        h = hashlib.sha256(repr(proc.returncode).encode())
        h.update(report_bytes(outputs["json"].read_text()))
        h.update(outputs["csv"].read_bytes())
        h.update(outputs["svg"].read_bytes())
    return h.hexdigest()


def cli_stdout_digest(curve_file: Path, *args) -> str:
    proc = run_cli("find", "--curve", curve_file, *args)
    h = hashlib.sha256(repr(proc.returncode).encode())
    h.update(report_bytes(proc.stdout))
    h.update(proc.stderr.encode())
    return h.hexdigest()


def command_digest(*args) -> str:
    """The exit code, the stdout and the ``--json`` file of a ``squarepeg`` child."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        proc = run_cli(*args, "--json", out)
        h = hashlib.sha256(repr(proc.returncode).encode())
        h.update(proc.stdout.encode())
        h.update(out.read_bytes() if out.exists() else b"")
    return h.hexdigest()


API_CHILD = """
import json, squarepeg
names = dir(squarepeg)
from squarepeg.cli import build_parser
parser = build_parser()
(commands,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
helps = [parser.format_help()] + [sub.format_help() for sub in commands.values()]
print(json.dumps([squarepeg.__all__, names, helps]))
"""


def api_digest() -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "100"}
    proc = subprocess.run(
        [sys.executable, "-c", API_CHILD], env=env, capture_output=True, text=True, check=True
    )
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def main() -> None:
    ellipse = sp.make_ellipse(2, 1)
    curves = {}
    for seed in range(2021, 2026):
        curves.update(suite.find_suite_curves(seed))
    curves.update(golden_curves())
    curves["perturb-0.08-8-46"] = sp.perturb(ellipse, 0.08, 8, seed=46)
    curves["perturb-0.08-10-36"] = sp.perturb(ellipse, 0.08, 10, seed=36)
    for name, curve in curves.items():
        print(f"find {name} {find_digest(curve)}", flush=True)
        print(f"scan {name} {scan_digest(curve)}", flush=True)
        print(f"newton {name} {newton_digest(curve)}", flush=True)
        print(f"embed {name} {embed_digest(curve)}", flush=True)
    refs = suite.reference_curves()
    large = newton_digest(refs["three-lobe"], refs["trefoil"], n=48)
    print(f"newton48 three-lobe,trefoil {large}", flush=True)
    paths = {p[0]: p[1:] for seed in range(2021, 2024) for p in suite.track_paths(seed)}
    paths["three-lobe->ellipse"] = (suite.three_lobe(), ellipse, 16)
    for label, (c0, c1, steps) in paths.items():
        print(f"track {label} {track_digest(c0, c1, steps)}", flush=True)
    data = ROOT / "perfbench" / "data"
    for curve_file in sorted(data.glob("*.json")):
        print(f"cli {curve_file.stem} {cli_digest(curve_file)}", flush=True)
        print(f"cli-stdout {curve_file.stem} {cli_stdout_digest(curve_file)}", flush=True)
        strata = command_digest("strata-report", "--curve", curve_file)
        print(f"cli-strata-report {curve_file.stem} {strata}", flush=True)
    guarded = cli_stdout_digest(data / "ellipse.json", "--sep-guard", "0.9")
    print(f"cli-withheld ellipse {guarded}", flush=True)
    ellipse_check = command_digest("verify-ellipse", "--a", "2", "--b", "1")
    print(f"cli-verify-ellipse a=2,b=1 {ellipse_check}", flush=True)
    harness = command_digest("equivalence", "--trials", "50", "--seed", "3")
    print(f"cli-equivalence trials=50,seed=3 {harness}", flush=True)
    path = ("--curve", data / "ellipse.json", "--target", data / "three-lobe.json", "--steps", 8)
    print(f"cli-track ellipse->three-lobe {command_digest('track', *path)}", flush=True)
    sizes = (8, 12, 14, 24, 32, 48)
    print(f"index-tables n={','.join(map(str, sizes))} {index_tables_digest(sizes)}", flush=True)
    print(f"api {api_digest()}", flush=True)


if __name__ == "__main__":
    main()
