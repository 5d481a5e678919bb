"""Alternating before/after pairs of the benchmark: every run, medians, IQRs, pair wins.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload find-suite,track,cli-cold --pairs 10

PARENT and CHANGE are checkout roots, say a ``git archive`` of the parent
commit and of the change.  The workloads run one after another.  Pair i of
a workload runs ``perfbench/run.py --trace 0`` in both, from each root (the
benchmark times the sources under the directory it runs from), the parent
first in even pairs and the change first in odd ones.  For each end-to-end
metric of the runs' last JSON line it prints every run, each side's median
and quartiles, the change's median relative to the parent's, and in how
many pairs the change is lower.  The header gives the Python version and
``PYTHONDONTWRITEBYTECODE``: without a bytecode cache every run compiles
the package, which the cold paths and ``setup_s`` pay.  A run with a
failed operation stops the script.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run(root: str, workload: str, args) -> dict:
    """One untraced benchmark run in ``root``; its end-to-end metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]  # fmt: skip
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"]:
        sys.exit(f"{root}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(q1, median, q3), inclusive method; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE") or "unset"
    print(f"python {platform.python_version()}, PYTHONDONTWRITEBYTECODE {bytecode}", flush=True)
    for workload in args.workload.split(","):
        pairs(workload, args)
    return 0


def pairs(workload: str, args) -> None:
    """Run and summarize the alternating pairs of one workload."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(getattr(args, side), workload, args))
            print(f"{workload} pair {i + 1}/{args.pairs} {side}: {runs[side][-1]}", file=sys.stderr)

    print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        lower = sum(c < p for p, c in zip(parent, change))
        print(name)
        for side, values in (("parent", parent), ("change", change)):
            q1, med, q3 = quartiles(values)
            print(f"  {side} median {med:.4g} [{q1:.4g}, {q3:.4g}] IQR {q3 - q1:.4g}:",
                  " ".join(f"{v:.4g}" for v in values))  # fmt: skip
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rel = f"{100 * (c_med / p_med - 1):+.1f}%" if p_med else "n/a"
        print(f"  change vs parent {rel}; lower in {lower} of {args.pairs} pairs", flush=True)


if __name__ == "__main__":
    sys.exit(main())
