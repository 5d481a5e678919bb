"""One SHA-256 per input over squarepeg's answers, to show that a change keeps them.

    python3 scripts/answer_digest.py > digests.txt    # then diff two checkouts' files

``find_all``: each class's angle bytes, ``jac_det``, ``transverse``, residual
norm and minimum separation, then parity and flags.  ``track``: ``ts``, the
class counts, the events and each step's class angles.  Inputs: the
benchmark's reference curves, seeded find-suite curves and track paths, the
golden curves of ``tests/test_solver.py`` and two ellipses with close roots.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import squarepeg as sp  # noqa: E402
import suite  # noqa: E402
from test_solver import golden_curves  # noqa: E402


def find_digest(curve) -> str:
    report = sp.find_all(curve)
    h = hashlib.sha256()
    for s in report.classes:
        h.update(s.theta.tobytes())
        h.update(np.array([s.jac_det, s.transverse, s.residual_norm, s.min_separation]).tobytes())
    h.update(repr((report.parity, report.degeneracy_flags)).encode())
    return h.hexdigest()


def track_digest(c0, c1, steps) -> str:
    trace = sp.track(c0, c1, steps)
    h = hashlib.sha256(np.asarray(trace.ts, dtype=float).tobytes())
    h.update(repr((trace.class_counts, trace.events)).encode())
    h.update(b"".join(s.theta.tobytes() for r in trace.reports for s in r.classes))
    return h.hexdigest()


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
    paths = {p[0]: p[1:] for seed in range(2021, 2024) for p in suite.track_paths(seed)}
    for label, (c0, c1, steps) in paths.items():
        print(f"track {label} {track_digest(c0, c1, steps)}", flush=True)


if __name__ == "__main__":
    main()
