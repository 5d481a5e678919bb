"""Recompute ``references.json``, the stored answers the benchmark checks against.

Run from the repository root (takes several minutes and about 1 GB):

    python3 perfbench/make_references.py

For each reference curve the classes come from three independent-ish
sources: ``find_all`` at grid 40, ``find_all`` at grid 48, and the brute-force
lattice oracle in ``tests/oracle.py`` at n = 64.  Every class is polished by
plain Newton on the public ``residual``/``jacobian`` to |G| <= 1e-12.  The
stored set is the one grids 40 and 48 agree on; the oracle's agreement is
recorded beside it.  Where the default solver disagrees with the stored set,
its answer is recorded under ``known_defects``.
"""

from __future__ import annotations

import datetime
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import squarepeg as sp  # noqa: E402
import suite  # noqa: E402
from oracle import oracle_classes  # noqa: E402

POLISH_TOL = 1e-12
AGREE_TOL = 1e-6
GRIDS = (40, 48)
ORACLE_N = 64


def polish(curve, theta) -> list:
    th = np.asarray(theta, dtype=float)
    for _ in range(20):
        g = sp.residual(curve, th)
        if np.abs(g).max() <= POLISH_TOL:
            break
        th = th - np.linalg.solve(sp.jacobian(curve, th), g)
    g = sp.residual(curve, th)
    if np.abs(g).max() > POLISH_TOL:
        raise RuntimeError(f"could not polish {theta}: |G| = {np.abs(g).max():.2e}")
    return [float(x) for x in sp.canonical_theta(th)]


def agree(a: list, b: list, tol: float) -> list:
    """Members of ``a`` with a partner in ``b`` within ``tol``."""
    return [x for x in a if any(suite.class_distance(x, y) <= tol for y in b)]


def solve_sources(curve) -> dict:
    out = {}
    for grid in GRIDS:
        t0 = time.perf_counter()
        rep = sp.find_all(curve, sp.SolverOptions(grid=grid))
        out[f"find_all_grid{grid}"] = {
            "classes": [polish(curve, s.theta) for s in rep.classes],
            "parity": rep.parity,
            "seconds": round(time.perf_counter() - t0, 1),
        }
    t0 = time.perf_counter()
    thetas = oracle_classes(curve, n=ORACLE_N)
    out[f"oracle_n{ORACLE_N}"] = {
        "classes": [polish(curve, th) for th in thetas],
        "seconds": round(time.perf_counter() - t0, 1),
    }
    return out


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    curves = suite.reference_curves()
    refs = {
        "provenance": {
            "script": "perfbench/make_references.py",
            "git_rev": git_rev(),
            "date": datetime.date.today().isoformat(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "method": (
                f"classes agreed by find_all at grids {GRIDS}, each polished by Newton "
                f"to |G| <= {POLISH_TOL:g}; oracle at n={ORACLE_N} recorded as a cross-check"
            ),
        },
        "curves": {},
        "track": {},
        "known_defects": {},
    }
    for name, curve in curves.items():
        default = sp.find_all(curve)
        print(f"{name}: default {len(default.classes)} classes, {default.parity}", flush=True)
        if name == "circle":
            refs["curves"][name] = {
                "parity": "withheld",
                "flags": ["NonTransverse"],
                "note": "a continuum: the class count depends on the grid (ROADMAP item 5)",
                "default_classes": len(default.classes),
            }
            continue
        sources = solve_sources(curve)
        g_lo, g_hi = (sources[f"find_all_grid{g}"] for g in GRIDS)
        consensus = agree(g_hi["classes"], g_lo["classes"], AGREE_TOL)
        if len(consensus) != len(g_hi["classes"]) or len(consensus) != len(g_lo["classes"]):
            raise RuntimeError(f"{name}: grids {GRIDS} disagree")
        oracle = sources[f"oracle_n{ORACLE_N}"]["classes"]
        entry = {
            "classes": consensus,
            "parity": g_hi["parity"],
            "sources": {
                key: {k: (len(v) if k == "classes" else v) for k, v in src.items()}
                for key, src in sources.items()
            },
            "oracle_agrees_on": len(agree(consensus, oracle, AGREE_TOL)),
            "oracle_extra": len(oracle) - len(agree(oracle, consensus, AGREE_TOL)),
        }
        if name == "ellipse":
            entry["closed_form"] = {
                "vertex_abs": suite.ELLIPSE_VERTEX,
                "jac_det": suite.ELLIPSE_DET,
            }
        refs["curves"][name] = entry
        answer = suite.answer_from_report(default)
        why = suite.check_reference(name, answer, refs)
        if why is not None:
            refs["known_defects"][name] = {
                "classes": len(default.classes),
                "parity": default.parity,
                "why": f"default find_all: {why}",
            }
        print(f"  reference {len(consensus)} classes, oracle agrees on "
              f"{entry['oracle_agrees_on']}, default: {why or 'ok'}", flush=True)

    ellipse = curves["ellipse"]
    trace = sp.track(ellipse, curves["three-lobe"], steps=suite.FIXED_TRACK_STEPS)
    births = [ev.t_lo for ev in trace.events if ev.kind == "Birth"]
    refs["track"]["ellipse->three-lobe"] = {
        "steps": suite.FIXED_TRACK_STEPS,
        "counts": [trace.class_counts[0], trace.class_counts[-1]],
        "birth_t_lo": births[0],
        "events": len(trace.events),
    }
    with open(suite.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {suite.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
