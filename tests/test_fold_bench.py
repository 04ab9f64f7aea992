"""tools/fold_bench.py: paired benchmark runs folded into one summary."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fold_bench.py"
spec = importlib.util.spec_from_file_location("fold_bench", TOOL)
fold_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fold_bench)

METRICS = {"setup_s": {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
           "train_claims_per_s": {"name": "train_claims_per_s", "unit": "1/s",
                                  "better": "higher", "bound": 0.25}}


def _write_runs(checkout: Path, workload: str, runs: dict[int, tuple]) -> None:
    for seed, (setup, claims) in runs.items():
        run_dir = checkout / ".bench_runs" / f"{workload}-seed{seed}-trace0"
        run_dir.mkdir(parents=True)
        (run_dir / "result.json").write_text(json.dumps({
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "train_claims_per_s": {"value": claims, "unit": "1/s"}},
        }))


def test_fold_pairs_by_seed_and_counts_wins_by_direction(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_runs(parent, "incremental", {1: (0.4, 10.0), 2: (0.3, 12.0), 3: (0.5, 11.0),
                                        9: (9.9, 1.0)})
    _write_runs(change, "incremental", {1: (0.2, 10.0), 2: (0.4, 13.0), 3: (0.1, 14.0)})
    _write_runs(change, "full_buffer", {1: (0.1, 1.0), 2: (0.1, 1.0)})
    (traced := parent / ".bench_runs" / "incremental-seed4-trace1").mkdir()
    (traced / "result.json").write_text("not read")

    folded = fold_bench.fold(fold_bench.read_runs(parent),
                             fold_bench.read_runs(change), METRICS)
    assert list(folded) == ["incremental"]  # full_buffer has no parent runs
    entry = folded["incremental"]
    assert entry["seeds"] == [1, 2, 3]  # seed 9 has no change run
    setup = entry["metrics"]["setup_s"]
    assert setup["parent"]["values"] == [0.4, 0.3, 0.5]
    assert setup["parent"]["median"] == 0.4
    assert setup["change"]["median"] == 0.2
    assert (setup["parent"]["q1"], setup["parent"]["q3"]) == pytest.approx((0.35, 0.45))
    assert setup["change_pct"] == pytest.approx(-50.0)
    assert setup["pairs_won"] == 2  # lower is better: seeds 1 and 3
    claims = entry["metrics"]["train_claims_per_s"]
    assert claims["pairs_won"] == 2  # higher is better; the tie at seed 1 is no win
    assert entry["failed_operations"] == {"parent": 0, "change": 0}


def test_seeds_fold_only_the_requested_range_and_refuse_a_missing_run(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_runs(parent, "full_buffer", {1: (0.4, 10.0), 2: (0.3, 12.0), 3: (0.5, 11.0),
                                        90: (9.9, 1.0)})
    _write_runs(change, "full_buffer", {1: (0.2, 10.0), 2: (0.4, 13.0), 3: (0.1, 14.0),
                                        90: (0.1, 99.0)})
    assert fold_bench.fold(fold_bench.read_runs(parent), fold_bench.read_runs(change),
                           METRICS)["full_buffer"]["seeds"] == [1, 2, 3, 90]
    out = tmp_path / "BENCH.json"
    sides = ["--parent", str(parent), "--change", str(change), "--out", str(out)]

    assert fold_bench.main([*sides, "--seeds", "1-3"]) == 0
    entry = json.loads(out.read_text())["workloads"]["full_buffer"]
    assert entry["seeds"] == [1, 2, 3]  # the stray seed 90 is not folded in
    assert entry["metrics"]["train_claims_per_s"]["pairs"] == 3
    assert entry["metrics"]["train_claims_per_s"]["change"]["values"] == [10.0, 13.0, 14.0]
    assert "full_buffer (3 pairs, seeds 1, 2, 3)" in capsys.readouterr().out

    out.unlink()
    _write_runs(change, "full_buffer", {4: (0.1, 1.0)})
    assert fold_bench.main([*sides, "--seeds", "1-4"]) == 1
    assert "full_buffer: no parent run of seeds [4]" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        fold_bench.main([*sides, "--seeds", "3-1"])


PARENT = [1.00 + 0.01 * k for k in range(10)]  # quartiles 1.0225 and 1.0675
WIDE = [0.6, 1.4] * 5  # quartiles 0.6 and 1.4: a spread of 80% of the median


@pytest.mark.parametrize("parent, change, verdict", [
    (PARENT, [v - 0.1 for v in PARENT], "gain"),
    # 8 wins and 2 ties: ties count for neither side, so 8/10 is no gain
    (PARENT, [v - 0.1 for v in PARENT[:8]] + PARENT[8:], "within bound"),
    (PARENT, [v * 1.3 for v in PARENT], "worse"),
    (WIDE, [v - 0.05 for v in WIDE[:5]] + [v + 0.05 for v in WIDE[5:]], "unresolved"),
    (PARENT, [v + 0.01 for v in PARENT], "within bound"),
    # 9 wins, but the medians differ by less than the parent's quartiles
    (PARENT, [v - 0.02 for v in PARENT[:9]] + [2.0], "within bound"),
])
def test_verdict_per_metric(parent, change, verdict):
    """setup_s (lower is better, bound 0.25) over ten pairs."""
    def runs(values):
        return {"full_buffer": {seed: {"correct": True, "failed": 0, "metrics": {
            "setup_s": {"value": v}}} for seed, v in enumerate(values)}}

    folded = fold_bench.fold(runs(parent), runs(change), METRICS)
    assert folded["full_buffer"]["metrics"]["setup_s"]["verdict"] == verdict


def test_verdict_follows_the_direction_of_a_metric():
    """For a higher-is-better metric, the same spreads give the mirrored
    verdicts."""
    spec = METRICS["train_claims_per_s"]
    before = fold_bench.summary(PARENT)
    assert fold_bench.verdict(before, fold_bench.summary([v + 0.1 for v in PARENT]),
                              10, 10, False, spec["bound"]) == "gain"
    assert fold_bench.verdict(before, fold_bench.summary([v * 0.7 for v in PARENT]),
                              0, 10, False, spec["bound"]) == "worse"
