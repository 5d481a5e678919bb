"""Alternating before/after pairs of the benchmark: every run, medians, IQRs, pair wins.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload find-suite,track,cli-cold --pairs 10
    python3 scripts/bench_pairs.py PARENT CHANGE --workload track --out bench.json

PARENT and CHANGE are checkout roots, say a ``git archive`` of the parent
commit and of the change.  The workloads run one after another.  Pair i of
a workload runs ``perfbench/run.py --trace 0`` in both, from each root (the
benchmark times the sources under the directory it runs from), the parent
first in even pairs and the change first in odd ones.  For each end-to-end
metric of the runs' last JSON line it prints every run, each side's median
and quartiles, the change's median relative to the parent's, and in how
many pairs the change is lower.  Two verdicts follow, with the metric's
``better`` direction and ``bound`` read from this checkout's
``BENCHMARK.json``: whether a gain may be claimed (the change is better in
at least 9/10 of the pairs and the medians differ by more than the
parent's IQR), and whether the change's median stays within the bound on
a worsening, exceeds it, or is unresolved (a side's IQR over its median is
wider than the bound, and not every run of the change is better than
every run of the parent).  The header gives the Python version and
``PYTHONDONTWRITEBYTECODE``: without a bytecode cache every run compiles
the package, which the cold paths and ``setup_s`` pay.  ``--out PATH``
also writes all of it to one JSON file: the header (Python version,
bytecode setting, seed, seconds, pairs) and, for each workload and metric,
every run of both sides, the quartiles, the pairs lower and, for an
end-to-end metric, both verdicts.  A run with a failed operation stops the
script.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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


def verdicts(parent: list, change: list, better: str, bound: float) -> tuple:
    """(gain verdict, bound verdict) of one metric's paired runs, as text.

    Values are signed so that lower is better; ties count for neither side.
    """
    sign = 1.0 if better == "lower" else -1.0
    parent, change = [sign * v for v in parent], [sign * v for v in change]
    wins = sum(c < p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = p_med - c_med
    gain = wins >= 0.9 * len(parent) and gap > p_q3 - p_q1
    gain_text = (
        f"gain {'holds' if gain else 'does not hold'}: better in {wins} of {len(parent)} "
        f"pairs (needs 9/10), median gap {gap:.4g} vs parent IQR {p_q3 - p_q1:.4g}"
    )
    worse = -gap / abs(p_med) if p_med else 0.0
    spread = max((q3 - q1) / abs(med) if med else 0.0
                 for q1, med, q3 in ((p_q1, p_med, p_q3), (c_q1, c_med, c_q3)))  # fmt: skip
    if worse > bound:
        state = "exceeded"
    elif spread > bound and not max(change) < min(parent):
        state = f"unresolved, an IQR is {100 * spread:.1f}% of its median"
    else:
        state = "within"
    side = "worse" if worse > 0 else "better"
    return gain_text, f"bound {100 * bound:g}%: {state}; median {100 * abs(worse):.1f}% {side}"


def summary(parent: list, change: list, metric: dict | None) -> dict:
    """One metric's paired runs: every run, each side's (q1, median, q3), the
    pairs in which the change is lower and, given the metric's
    ``BENCHMARK.json`` entry, the gain and bound verdicts."""
    entry = {
        "parent": parent,
        "change": change,
        "parent_quartiles": list(quartiles(parent)),
        "change_quartiles": list(quartiles(change)),
        "pairs_lower": sum(c < p for p, c in zip(parent, change)),
    }
    if metric:
        entry["gain"], entry["bound"] = verdicts(parent, change, metric["better"], metric["bound"])
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", help="also write every run and verdict to this JSON file")
    args = parser.parse_args(argv)

    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE") or "unset"
    print(f"python {platform.python_version()}, PYTHONDONTWRITEBYTECODE {bytecode}", flush=True)
    workloads = {workload: pairs(workload, args) for workload in args.workload.split(",")}
    if args.out:
        header = {"python": platform.python_version(), "PYTHONDONTWRITEBYTECODE": bytecode,
                  "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs}  # fmt: skip
        text = json.dumps({"header": header, "workloads": workloads}, indent=1)
        Path(args.out).write_text(text + "\n")
    return 0


def pairs(workload: str, args) -> dict:
    """Run and summarize the alternating pairs of one workload; each metric's ``summary``."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(getattr(args, side), workload, args))
            print(f"{workload} pair {i + 1}/{args.pairs} {side}: {runs[side][-1]}", file=sys.stderr)

    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    summaries = {}
    for name in runs["parent"][0]:
        s = summaries[name] = summary(
            [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]], metrics.get(name)
        )
        print(name)
        for side in ("parent", "change"):
            q1, med, q3 = s[f"{side}_quartiles"]
            print(f"  {side} median {med:.4g} [{q1:.4g}, {q3:.4g}] IQR {q3 - q1:.4g}:",
                  " ".join(f"{v:.4g}" for v in s[side]))  # fmt: skip
        p_med, c_med = s["parent_quartiles"][1], s["change_quartiles"][1]
        rel = f"{100 * (c_med / p_med - 1):+.1f}%" if p_med else "n/a"
        print(f"  change vs parent {rel}; lower in {s['pairs_lower']} of {args.pairs} pairs")
        for key in ("gain", "bound"):
            if key in s:
                print(f"  {s[key]}")
        sys.stdout.flush()
    return summaries


if __name__ == "__main__":
    sys.exit(main())
