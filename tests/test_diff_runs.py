"""tools/diff_runs.py: two train runs compared decision by decision."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from claimsift import runstate
from claimsift.cli import main
from claimsift.corpus import SynthConfig, generate_synthetic, save_dataset

TOOL = Path(__file__).resolve().parent.parent / "tools" / "diff_runs.py"
spec = importlib.util.spec_from_file_location("diff_runs", TOOL)
diff_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_runs)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("diff_runs")
    data = root / "corpus.jsonl"
    save_dataset(generate_synthetic(SynthConfig(n_claims=4, posts_per_claim=4,
                                                rng_seed=3, name="toy")), data)
    runs = []
    for name in ("a", "b"):
        out = root / name
        assert main(["train", "--dataset", str(data), "--out", str(out),
                     "--max-epochs", "2", "--embed-dim", "8", "--hidden-dim", "4",
                     "--rng-seed", "7"]) == 0
        runs.append(out)
    return runs


def test_identical_runs_are_reported_identical(two_runs, capsys):
    assert diff_runs.main([str(run) for run in two_runs]) == 0
    out = capsys.readouterr().out
    lines = len((two_runs[0] / "run_log.jsonl").read_text().splitlines())
    assert f"decisions: identical ({lines} lines)" in out
    assert "max |dp_retain|: 0" in out
    assert "run_state.ckpt: identical" in out


def test_a_flipped_action_is_reported_at_its_line(two_runs, tmp_path, capsys):
    flipped = tmp_path / "flipped"
    shutil.copytree(two_runs[1], flipped)
    events = [json.loads(line) for line in
              (flipped / "run_log.jsonl").read_text().splitlines()]
    events[4]["action"] = "discard" if events[4]["action"] == "retain" else "retain"
    events[2]["p_retain"] += 1e-3  # before the flip: counted
    events[6]["p_retain"] += 1.0  # after it: not counted
    (flipped / "run_log.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))

    assert diff_runs.main([str(two_runs[0]), str(flipped)]) == 1
    out = capsys.readouterr().out
    assert "decisions: differ at line 5: action " in out
    assert "max |dp_retain|: 0.001" in out
    assert "run_state.ckpt: identical" in out


def test_a_short_log_and_changed_params_are_differences(two_runs, tmp_path, capsys):
    a, b = (diff_runs.read_log(run) for run in two_runs)
    report = diff_runs.compare_logs(a, b[:-1])
    assert report["first_difference"] == len(a)
    assert "ends" in report["detail"]

    moved = tmp_path / "moved"
    shutil.copytree(two_runs[1], moved)
    state, arrays = runstate.read_run_state(moved / "run_state.ckpt")
    arrays["w1"] = arrays["w1"] * (1 + 1e-9)
    runstate.write_run_state(moved / "run_state.ckpt", state, arrays)
    byte = diff_runs.first_differing_byte((two_runs[1] / "run_state.ckpt").read_bytes(),
                                          (moved / "run_state.ckpt").read_bytes())
    assert diff_runs.main([str(two_runs[0]), str(moved)]) == 1
    out = capsys.readouterr().out
    assert "decisions: identical" in out and f"run_state.ckpt: differ at byte {byte}" in out
    assert [diff_runs.first_differing_byte(b"abc", other)
            for other in (b"abd", b"ab", b"abc")] == [3, 3, None]
