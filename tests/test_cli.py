"""End-to-end command-line workflows in temporary directories."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from claimsift import runstate
from claimsift.annotators import OracleAnnotator
from claimsift.cli import main
from claimsift.corpus import SynthConfig, generate_synthetic, load_dataset, save_dataset
from claimsift.engine import Trainer
from claimsift.state import HashedEmbedder

TRAIN_FLAGS = [
    "--max-epochs", "2", "--embed-dim", "16", "--hidden-dim", "4",
    "--rng-seed", "7",
]

TRAIN_ARTIFACTS = [
    "config.resolved.json",
    "run_log.jsonl",
    "run_state.ckpt",
    "epoch_reports.json",
    "annotations.jsonl",
    "finetune_stance.jsonl",
    "finetune_veracity.jsonl",
]


def _write_corpus(path, n_claims=5, rng_seed=3):
    dataset = generate_synthetic(
        SynthConfig(n_claims=n_claims, posts_per_claim=4, rng_seed=rng_seed,
                    name="toy")
    )
    save_dataset(dataset, path)
    return dataset


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    data = root / "corpus.jsonl"
    _write_corpus(data)
    out = root / "run"
    rc = main(["train", "--dataset", str(data), "--out", str(out)] + TRAIN_FLAGS)
    assert rc == 0
    return data, out


# ---------------------------------------------------------------- synth

def test_synth_writes_dataset(tmp_path, capsys):
    rc = main([
        "synth", "--out", str(tmp_path), "--n-claims", "8",
        "--posts-per-claim", "5", "--rng-seed", "3", "--name", "toy",
    ])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["path"] == str(tmp_path / "toy.jsonl")
    assert stats["claims"] == 8
    assert stats["posts"] == 40
    dataset = load_dataset(tmp_path / "toy.jsonl")
    assert len(dataset) == 8


def test_synth_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = main([
            "synth", "--out", str(tmp_path / sub), "--n-claims", "4",
            "--rng-seed", "9", "--name", "twin",
        ])
        assert rc == 0
    first = (tmp_path / "a" / "twin.jsonl").read_bytes()
    second = (tmp_path / "b" / "twin.jsonl").read_bytes()
    assert first == second


def test_synth_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(
        json.dumps({"n_claims": 4, "posts_per_claim": 3, "rng_seed": 5,
                    "name": "cfg_made"}),
        encoding="utf-8",
    )
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path),
               "--n-claims", "6"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["claims"] == 6  # flag beats the config file
    assert stats["path"].endswith("cfg_made.jsonl")


@pytest.mark.parametrize("raw,message", [
    ({"n_claims": "x"}, "n_claims: expected an integer, got 'x'"),
    ({"noise_post_fraction": None}, "noise_post_fraction: expected a number, got None"),
    ({"name": 3}, "name: expected a string, got 3"),
    ({"veracity_prior": 3}, "veracity_prior: expected a list of 4 numbers, got 3"),
    ({"veracity_prior": None}, "veracity_prior: expected a list of 4 numbers, got None"),
    ({"veracity_prior": [1, 0, 0]},
     "veracity_prior: expected a list of 4 numbers, got [1, 0, 0]"),
    ({"veracity_prior": [True, 0, 0, 0]},
     "veracity_prior: expected a list of 4 numbers, got [True, 0, 0, 0]"),
    ({"stance_given_veracity": [1, 2]},
     "stance_given_veracity: expected a list of 4 rows, got [1, 2]"),
    ({"stance_given_veracity": [[1, 0, 0, 0]] * 3 + [[1, 0, 0]]},
     "stance_given_veracity[3]: expected a list of 4 numbers, got [1, 0, 0]"),
    ({"stance_given_veracity": [[1, 0, 0, 0]] * 3 + [[1, 0, "0", 0]]},
     "stance_given_veracity[3]: expected a list of 4 numbers, got [1, 0, '0', 0]"),
], ids=["str-int", "null-float", "int-str", "int-prior", "null-prior", "short-prior",
        "bool-prior", "flat-matrix", "ragged-matrix", "str-in-matrix"])
def test_bad_synth_config_value_is_a_usage_error(tmp_path, capsys, raw, message):
    """A synth config value of the wrong JSON type or shape exits 2 with the
    field's name; a bool is not a number."""
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------- train

def test_train_writes_artifact_inventory(trained_run):
    _, out = trained_run
    assert sorted(path.name for path in out.iterdir()) == sorted(TRAIN_ARTIFACTS)
    reports = json.loads((out / "epoch_reports.json").read_text(encoding="utf-8"))
    assert [r["epoch"] for r in reports] == [1, 2]
    assert all(r["claims_processed"] == 5 for r in reports)
    events = [
        json.loads(line)
        for line in (out / "run_log.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert events, "run log should capture per-step events"
    assert all("level" in e and "p_retain" in e for e in events)
    resolved = json.loads((out / "config.resolved.json").read_text(encoding="utf-8"))
    assert resolved["embed_dim"] == 16
    assert resolved["max_epochs"] == 2


def test_train_is_deterministic_apart_from_timing(tmp_path):
    data = tmp_path / "corpus.jsonl"
    _write_corpus(data, rng_seed=6)
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        rc = main(["train", "--dataset", str(data), "--out", str(out)]
                  + TRAIN_FLAGS)
        assert rc == 0
        outs.append(out)

    def reports_sans_wall(out):
        reports = json.loads((out / "epoch_reports.json").read_text(encoding="utf-8"))
        for r in reports:
            r.pop("wall_time_s")
        return reports

    def log_sans_ts(out):
        lines = (out / "run_log.jsonl").read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        for e in events:
            e.pop("ts")
        return events

    def state_sans_wall(out):
        state, arrays = runstate.read_run_state(out / "run_state.ckpt")
        assert state["config"].pop("out_dir") == str(out)
        for r in state["reports"]:
            r.pop("wall_time_s")
        return state, {name: value.tobytes() for name, value in arrays.items()}

    assert reports_sans_wall(outs[0]) == reports_sans_wall(outs[1])
    assert log_sans_ts(outs[0]) == log_sans_ts(outs[1])
    assert state_sans_wall(outs[0]) == state_sans_wall(outs[1])
    for name in ("annotations.jsonl", "finetune_stance.jsonl", "finetune_veracity.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_train_writes_each_epochs_records_as_it_ends(tmp_path, monkeypatch):
    """When epoch 2 begins, the run directory already holds epoch 1's
    decision events, annotation records, fine-tune examples, run state and
    report, and the final files continue them."""
    data = tmp_path / "corpus.jsonl"
    _write_corpus(data)
    out = tmp_path / "run"
    names = ("run_log.jsonl", "annotations.jsonl", "finetune_stance.jsonl",
             "finetune_veracity.jsonl")
    after_epoch_1 = {}
    committed = {}
    begin = Trainer._begin_epoch

    def spy(self):
        if self.epoch_index == 1:
            after_epoch_1.update(
                {name: (out / name).read_text(encoding="utf-8") for name in names})
            committed["state"], _ = runstate.read_run_state(out / "run_state.ckpt")
            committed["reports"] = json.loads(
                (out / "epoch_reports.json").read_text(encoding="utf-8"))
        begin(self)

    monkeypatch.setattr(Trainer, "_begin_epoch", spy)
    assert main(["train", "--dataset", str(data), "--out", str(out)] + TRAIN_FLAGS) == 0
    first = json.loads((out / "epoch_reports.json").read_text(encoding="utf-8"))[0]
    lines = {name: text.splitlines() for name, text in after_epoch_1.items()}
    events = [json.loads(line) for line in lines["run_log.jsonl"]]
    assert len(events) == first["posts_annotated"] + first["claims_processed"]
    records = [json.loads(line) for line in lines["annotations.jsonl"]]
    assert len(records) == first["posts_annotated"] > 0
    assert {e["epoch"] for e in events} == {r["epoch"] for r in records} == {1}
    assert len(lines["finetune_stance.jsonl"]) == first["finetune_stance_examples"] > 0
    assert len(lines["finetune_veracity.jsonl"]) == first["finetune_veracity_examples"]
    for name, text in after_epoch_1.items():
        final = (out / name).read_text(encoding="utf-8")
        assert final.startswith(text) and len(final) > len(text), name
    assert committed["state"]["epoch_index"] == 1
    assert committed["state"]["epoch"] is None
    assert committed["reports"] == committed["state"]["reports"] == [first]


def test_interrupted_train_leaves_a_resumable_commit(tmp_path, monkeypatch):
    """A run stopped as epoch 2 starts has committed epoch 1: its run state,
    resumed and trained to the end, gives the uninterrupted run's policy,
    and its JSONL files hold exactly epoch 1's lines."""
    data = tmp_path / "corpus.jsonl"
    _write_corpus(data)
    flags = ["--dataset", str(data)] + TRAIN_FLAGS + ["--max-epochs", "3"]
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    assert main(["train", "--out", str(whole)] + flags) == 0
    run_epoch = Trainer.run_epoch
    calls = []

    def stop_at_the_second_call(self, limit=None):
        calls.append(limit)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return run_epoch(self, limit)

    monkeypatch.setattr(Trainer, "run_epoch", stop_at_the_second_call)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--out", str(cut)] + flags)
    monkeypatch.setattr(Trainer, "run_epoch", run_epoch)

    state, _arrays = runstate.read_run_state(cut / "run_state.ckpt")
    assert state["epoch_index"] == 1 and state["epoch"] is None
    resumed = Trainer.from_run_state(
        cut / "run_state.ckpt", load_dataset(data), OracleAnnotator(rng=0),
        OracleAnnotator(rng=0), HashedEmbedder(16))
    resumed.train()
    _state, expected = runstate.read_run_state(whole / "run_state.ckpt")
    assert resumed.epoch_index == 3
    for name in ("w1", "w2"):
        assert getattr(resumed.params, name).tobytes() == expected[name].tobytes()

    first = state["reports"][0]
    events = [json.loads(line) for line in
              (cut / "run_log.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {e["epoch"] for e in events} == {1}
    assert len(events) == first["posts_annotated"] + first["claims_processed"]
    sizes = {"annotations.jsonl": first["posts_annotated"],
             "finetune_stance.jsonl": first["finetune_stance_examples"],
             "finetune_veracity.jsonl": first["finetune_veracity_examples"]}
    for name, size in sizes.items():
        lines = (cut / name).read_text(encoding="utf-8").splitlines()
        assert lines == (whole / name).read_text(encoding="utf-8").splitlines()[:size]


def test_train_requires_dataset_and_out(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path)]) == 2
    assert "dataset: required" in capsys.readouterr().err
    assert main(["train", "--dataset", str(tmp_path / "c.jsonl")]) == 2
    assert "out_dir: required" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json"),
               "--dataset", "x", "--out", "y"])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("raw,message", [
    ({"embed_dim": "x"}, "embed_dim: expected an integer, got 'x'"),
    ({"embed_dim": True}, "embed_dim: expected an integer, got True"),
    ({"max_epochs": 2.5}, "max_epochs: expected an integer, got 2.5"),
    ({"epsilon": None}, "epsilon: expected a number, got None"),
    ({"buffer_window": "3"}, "buffer_window: expected an integer or null, got '3'"),
    ({"use_baseline": 1}, "use_baseline: expected true or false, got 1"),
    ({"dataset": 7}, "dataset: expected a string or null, got 7"),
    ({"sd_backend": None}, "sd_backend: expected an object, got None"),
    ({"sd_backend": {"timeout": "a"}}, "sd_backend.timeout: expected a number, got 'a'"),
    ({"rv_backend": {"max_in_flight": False}},
     "rv_backend.max_in_flight: expected an integer, got False"),
    ({"embed_backend": {"endpoint": 3}},
     "embed_backend.endpoint: expected a string or null, got 3"),
    ({"centered_rewards": True}, "unknown config keys: ['centered_rewards']"),
    ({"baseline_momentum": 0.9}, "unknown config keys: ['baseline_momentum']"),
], ids=["str-int", "bool-int", "float-int", "null-float", "str-optional-int",
        "int-bool", "int-optional-str", "null-backend", "str-backend-float",
        "bool-backend-int", "int-embed-endpoint", "centered_rewards",
        "baseline_momentum"])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, raw, message):
    """A config value of the wrong JSON type, and a deleted field, exit 2
    with the field's name; a bool is not an integer."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--dataset", "x", "--out", "y"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_dataset_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["train", "--dataset", str(tmp_path / "absent.jsonl"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "dataset file not found" in capsys.readouterr().err


# -------------------------------------------------------------- evaluate

def test_evaluate_prints_report_and_writes_metrics(tmp_path, capsys):
    data = tmp_path / "corpus.jsonl"
    _write_corpus(data)
    out = tmp_path / "metrics"
    rc = main(["evaluate", "--dataset", str(data), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert set(report) == {"stance", "veracity"}
    assert 0.0 <= report["stance"]["micro_f1"] <= 1.0
    assert (out / "metrics.json").read_text(encoding="utf-8") == printed.rstrip("\n") + "\n"


def test_evaluate_with_policy_checkpoint(trained_run, capsys):
    data, out = trained_run
    rc = main([
        "evaluate", "--config", str(out / "config.resolved.json"),
        "--dataset", str(data), "--checkpoint", str(out / "run_state.ckpt"),
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["veracity"]["n_instances"] == 5


def test_evaluate_requires_dataset(capsys):
    assert main(["evaluate"]) == 2
    assert "dataset: required" in capsys.readouterr().err


def test_evaluate_rejects_checkpoint_width_mismatch(trained_run, capsys):
    data, out = trained_run
    # default embed_dim (768) disagrees with the 16-dim training run
    rc = main(["evaluate", "--dataset", str(data),
               "--checkpoint", str(out / "run_state.ckpt")])
    assert rc == 2
    assert "does not match embed_dim" in capsys.readouterr().err


def test_evaluate_rejects_checkpoints_that_do_not_fit(trained_run, tmp_path, capsys):
    """Arrays that disagree in shape, a missing optimizer entry and the
    retired policy format are usage errors."""
    data, out = trained_run
    state, arrays = runstate.read_run_state(out / "run_state.ckpt")
    bad = tmp_path / "bad.ckpt"
    for bad_state, bad_arrays in (
        (state, {**arrays, "w2": arrays["w2"][:-1]}),
        ({}, arrays),
    ):
        runstate.write_run_state(bad, bad_state, bad_arrays)
        rc = main(["evaluate", "--config", str(out / "config.resolved.json"),
                   "--dataset", str(data), "--checkpoint", str(bad)])
        assert rc == 2
        assert "malformed policy checkpoint" in capsys.readouterr().err
    bad.write_bytes(b"CSPOLICY" + bytes(100))
    rc = main(["evaluate", "--config", str(out / "config.resolved.json"),
               "--dataset", str(data), "--checkpoint", str(bad)])
    assert rc == 2
    assert "bad magic" in capsys.readouterr().err


# ------------------------------------------------------------ entry point

def test_console_script_is_installed():
    exe = shutil.which("claimsift")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout and "evaluate" in proc.stdout


def test_module_invocation_via_python():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from claimsift.cli import main; sys.exit(main(['synth', '--help']))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "--n-claims" in proc.stdout
