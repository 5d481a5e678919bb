"""Run each workload at several seeds and record the run-to-run spread.

    python3 perfbench/spread.py [--seeds 1,2,...] [--seconds 40] [--trace 0] [find-suite track ...]

For every end-to-end metric the spread is the distance between the first and
third quartiles of the runs (``statistics.quantiles(values, n=4)``) as a share
of their median; it should stay below a third of the metric's bound in
``BENCHMARK.json``.  Each run's result and the summary are written to
``perfbench/baseline/<workload>[-trace].json``.  Repeating one seed
(``--seeds 1,1 --trace 1``) shows whether the per-layer counts repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    (HERE / "baseline").mkdir(exist_ok=True)
    for workload in args.workloads:
        runs = []
        for seed in [int(s) for s in args.seeds.split(",")]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            runs.append(detail)
            result = detail["result"]
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  {k: v["value"] for k, v in result["metrics"].items() if k in bounds}, flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0,
                             "bound": bounds.get(name), "values": values}
        for name in bounds:
            if name in summary:
                print(f"  {workload} {name}: median {summary[name]['median']:.4f} "
                      f"spread {summary[name]['spread']:.4f} (bound {bounds[name]})")
        suffix = "-trace" if args.trace else ""
        with open(HERE / "baseline" / f"{workload}{suffix}.json", "w") as fh:
            json.dump({"why": runs[0]["why"], "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
