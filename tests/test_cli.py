"""End-to-end command-line workflows in temporary directories."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from claimsift.cli import main
from claimsift.config import RunConfig, save_config
from claimsift.corpus import SynthConfig, generate_synthetic, load_dataset, save_dataset
from claimsift.engine import Trainer

TRAIN_FLAGS = [
    "--max-epochs", "2", "--embed-dim", "16", "--hidden-dim", "4",
    "--rng-seed", "7",
]

TRAIN_ARTIFACTS = [
    "config.resolved.json",
    "run_log.jsonl",
    "policy_epoch_001.ckpt",
    "policy_epoch_002.ckpt",
    "policy.ckpt",
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


# ---------------------------------------------------------------- train

def test_train_writes_artifact_inventory(trained_run):
    _, out = trained_run
    for name in TRAIN_ARTIFACTS:
        assert (out / name).exists(), name
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

    assert reports_sans_wall(outs[0]) == reports_sans_wall(outs[1])
    assert log_sans_ts(outs[0]) == log_sans_ts(outs[1])
    for name in ("annotations.jsonl", "policy.ckpt", "finetune_stance.jsonl",
                 "finetune_veracity.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_train_writes_each_epochs_records_as_it_ends(tmp_path, monkeypatch):
    """When epoch 2 begins, the run directory already holds epoch 1's
    decision events, annotation records and fine-tune examples, and the
    final files continue them."""
    data = tmp_path / "corpus.jsonl"
    _write_corpus(data)
    out = tmp_path / "run"
    names = ("run_log.jsonl", "annotations.jsonl", "finetune_stance.jsonl",
             "finetune_veracity.jsonl")
    after_epoch_1 = {}
    begin = Trainer._begin_epoch

    def spy(self):
        if self.epoch_index == 1:
            after_epoch_1.update(
                {name: (out / name).read_text(encoding="utf-8") for name in names})
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
        "--dataset", str(data), "--checkpoint", str(out / "policy.ckpt"),
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
               "--checkpoint", str(out / "policy.ckpt")])
    assert rc == 2
    assert "does not match embed_dim" in capsys.readouterr().err


# ---------------------------------------------------------------- export

def test_export_embeddings_covers_all_annotations(trained_run, capsys):
    _, out = trained_run
    rc = main(["export-embeddings", "--run-dir", str(out)])
    assert rc == 0
    annotations = (out / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
    vectors = (out / "embeddings.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(vectors) == len(annotations) > 0
    record = json.loads(vectors[0])
    assert set(record) == {"post_id", "stance", "vector"}
    assert len(record["vector"]) == 16
    assert f"wrote {len(vectors)} embedding records" in capsys.readouterr().out


def test_export_embeddings_needs_annotations(tmp_path, capsys):
    run_dir = tmp_path / "empty_run"
    run_dir.mkdir()
    save_config(RunConfig(embed_dim=8), run_dir / "config.resolved.json")
    rc = main(["export-embeddings", "--run-dir", str(run_dir)])
    assert rc == 2
    assert "has no annotations.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line,message", [
    ("{oops", "line 2: malformed JSON"),
    ('["a", "list"]', "line 2: record is not an object"),
    ('{"post_id": "p", "stance": "S", "explanation": "e"}', "line 2: annotation record needs"),
    ('{"post_id": "p", "post_text": "t", "explanation": "e"}', "line 2: annotation record needs"),
    ('{"post_id": "p", "post_text": "t", "stance": "S"}', "line 2: annotation record needs"),
    ('{"post_id": "p", "post_text": "t", "stance": "X", "explanation": "e"}',
     "line 2: annotation record needs"),
], ids=["malformed-json", "not-an-object", "no-post-text", "no-stance",
        "no-explanation", "unknown-stance"])
def test_export_embeddings_rejects_malformed_annotations(trained_run, tmp_path, capsys,
                                                         bad_line, message):
    _, out = trained_run
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    shutil.copy(out / "config.resolved.json", run_dir)
    first = (out / "annotations.jsonl").read_text(encoding="utf-8").splitlines()[0]
    (run_dir / "annotations.jsonl").write_text(f"{first}\n{bad_line}\n", encoding="utf-8")
    rc = main(["export-embeddings", "--run-dir", str(run_dir)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (run_dir / "embeddings.jsonl").exists()


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
