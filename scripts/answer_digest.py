"""One SHA-256 per input over squarepeg's answers, to show that a change keeps them.

    python3 scripts/answer_digest.py > digests.txt    # then diff two checkouts' files

``find_all``: each class's angle bytes, ``jac_det``, ``transverse``, residual
norm and minimum separation, then parity and flags.  ``scan``: the seed
bytes of the lattice and window scan at n = 24 and n = 12, so that a change
to the scan can be checked on its seeds, not only on the answers they
reach.  ``newton``: ``_newton_batch``'s thetas, norms and status on the
n = 24 scan seeds, each exactly repeated row (after reduction mod 2pi)
kept once, as ``find_all`` runs them: a change to the Newton loop can be
checked on its iterates.  ``embed``: the curve's diameter and its regularity and
embedding check at 1,024 and 4,096 samples.  ``track``: ``ts``, the class
counts, the events and each step's class angles.  Inputs: the benchmark's
reference curves, seeded find-suite curves and track paths, the reverse path
three-lobe -> ellipse (a death), the golden curves of ``tests/test_solver.py``
and two ellipses with close roots.  ``cli``: the exit code and the
``--json`` (without ``timings``), ``--csv`` and ``--svg`` outputs of a
``squarepeg find`` child run on this checkout's sources, for each curve file
in ``perfbench/data``.  ``api``: ``squarepeg.__all__``, ``dir(squarepeg)`` in a
fresh child before any lazy name resolves, and the ``--help`` text of the
CLI and of each subcommand at 100 columns.
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
from squarepeg.solver import TWO_PI, SolverOptions, _newton_batch, _scan_seeds  # noqa: E402
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


def newton_digest(curve) -> str:
    # the merge of ``find_all``, written out so that the script runs on older checkouts too
    seeds = _scan_seeds(curve, 24)
    reduced = np.mod(seeds, TWO_PI)
    order = np.lexsort(reduced.T)
    repeat = np.zeros(len(seeds), dtype=bool)
    repeat[order[1:]] = (reduced[order[1:]] == reduced[order[:-1]]).all(axis=1)
    h = hashlib.sha256()
    for out in _newton_batch(curve, seeds[~repeat], SolverOptions())[:3]:
        h.update(out.tobytes())
    return h.hexdigest()


def embed_digest(curve) -> str:
    checks = [sp.regularity_and_embedding_check(curve, n) for n in (1024, 4096)]
    return hashlib.sha256(repr((curve.diameter, checks)).encode()).hexdigest()


def track_digest(c0, c1, steps) -> str:
    trace = sp.track(c0, c1, steps)
    h = hashlib.sha256(np.asarray(trace.ts, dtype=float).tobytes())
    h.update(repr((trace.class_counts, trace.events)).encode())
    h.update(b"".join(s.theta.tobytes() for r in trace.reports for s in r.classes))
    return h.hexdigest()


def cli_digest(curve_file: Path) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {ext: Path(tmp) / f"out.{ext}" for ext in ("json", "csv", "svg")}
        argv = [sys.executable, "-m", "squarepeg.cli", "find", "--curve", str(curve_file)]
        for ext, path in outputs.items():
            argv += [f"--{ext}", str(path)]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
        if proc.returncode not in (0, 2):  # 2: a degenerate answer, still an answer
            sys.exit(f"squarepeg find {curve_file} exited {proc.returncode}: {proc.stderr}")
        report = json.loads(outputs["json"].read_text())
        del report["timings"]
        h = hashlib.sha256(repr(proc.returncode).encode())
        h.update(json.dumps(report).encode())
        h.update(outputs["csv"].read_bytes())
        h.update(outputs["svg"].read_bytes())
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
    paths = {p[0]: p[1:] for seed in range(2021, 2024) for p in suite.track_paths(seed)}
    paths["three-lobe->ellipse"] = (suite.three_lobe(), ellipse, 16)
    for label, (c0, c1, steps) in paths.items():
        print(f"track {label} {track_digest(c0, c1, steps)}", flush=True)
    for curve_file in sorted((ROOT / "perfbench" / "data").glob("*.json")):
        print(f"cli {curve_file.stem} {cli_digest(curve_file)}", flush=True)
    print(f"api {api_digest()}", flush=True)


if __name__ == "__main__":
    main()
