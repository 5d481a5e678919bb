"""``scripts/bench_pairs.py --out`` on synthetic runs: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture()
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_out_holds_every_run_quartiles_and_verdicts(bench_pairs, monkeypatch, tmp_path, capsys):
    # the change's pass_rel is 10% lower in every pair; its peak_rss_mb is 20% higher
    calls = []

    def fake_run(root, workload, args):
        k = sum(c == (root, workload) for c in calls)
        calls.append((root, workload))
        scale = 0.9 if root == "change" else 1.0
        rss = 60.0 * (1.2 if root == "change" else 1.0)
        return {"pass_rel": scale * (5.0 + 0.01 * k), "peak_rss_mb": rss, "ops": 7}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "BENCH.json"
    argv = ["parent", "change", "--workload", "track,cli-cold", "--pairs", "4", "--seed", "7"]
    assert bench_pairs.main(argv + ["--seconds", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out

    record = json.loads(out.read_text())
    header = record["header"]
    assert (header["seed"], header["seconds"], header["pairs"]) == (7, 2.0, 4)
    assert set(header) == {"python", "PYTHONDONTWRITEBYTECODE", "seed", "seconds", "pairs"}
    assert list(record["workloads"]) == ["track", "cli-cold"]
    # the sides alternate, parent first in even pairs
    assert [root for root, _ in calls[:4]] == ["parent", "change", "change", "parent"]

    rel = record["workloads"]["track"]["pass_rel"]
    assert rel["parent"] == pytest.approx([5.0, 5.01, 5.02, 5.03])
    assert rel["change"] == pytest.approx([0.9 * v for v in rel["parent"]])
    assert rel["parent_quartiles"] == pytest.approx([5.0075, 5.015, 5.0225])
    assert rel["pairs_lower"] == 4
    assert rel["gain"].startswith("gain holds: better in 4 of 4 pairs")
    assert rel["bound"].startswith("bound 25%: within; median 10.0% better")

    rss = record["workloads"]["track"]["peak_rss_mb"]
    assert rss["pairs_lower"] == 0
    assert rss["bound"].startswith("bound 10%: exceeded; median 20.0% worse")
    # a metric that is not end to end has runs but no verdicts
    assert set(record["workloads"]["cli-cold"]["ops"]) == {
        "parent", "change", "parent_quartiles", "change_quartiles", "pairs_lower"
    }
    # the printed report carries the same verdicts
    assert rel["gain"] in printed and rss["bound"] in printed


def test_wide_iqr_without_a_clean_separation_is_unresolved(bench_pairs):
    # the parent's IQR is 43% of its median, over the 25% bound, and the
    # change's median is 5.7% worse, under it: the runs cannot tell
    parent, change = [1.0, 1.5, 2.0, 2.5], [1.2, 1.6, 2.1, 2.4]
    gain, bound = bench_pairs.verdicts(parent, change, "lower", 0.25)
    assert bound == "bound 25%: unresolved, an IQR is 42.9% of its median; median 5.7% worse"
    assert gain.startswith("gain does not hold: better in 1 of 4 pairs")


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_every_change_run_better_is_within_despite_a_wide_iqr(bench_pairs, better):
    # each change run beats each parent run, so the spread does not matter
    parent, change = [2.0, 3.0, 4.0, 5.0], [1.0, 1.2, 1.5, 1.9]
    if better == "higher":
        parent, change = [-v for v in parent], [-v for v in change]
    _, bound = bench_pairs.verdicts(parent, change, better, 0.25)
    assert bound == "bound 25%: within; median 61.4% better"
