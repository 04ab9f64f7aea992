"""Training engine: epochs, rewards, termination, warm-up, resumption."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from claimsift import engine
from claimsift.annotators import BackendConfig, HttpAnnotator, OracleAnnotator
from claimsift.config import RunConfig
from claimsift.corpus import SynthConfig, generate_synthetic
from claimsift.engine import Trainer
from claimsift.errors import (
    AnnotatorError,
    CheckpointError,
    ConfigError,
    DatasetError,
    EmbedError,
)
from claimsift.metrics import evaluate
from claimsift.policy import PolicyParams, init_params
from claimsift.state import HashedEmbedder, ServiceEmbedder

# stance-given-veracity rows that put all mass on the modal stance, so a
# perfectly accurate oracle yields a +1 reward on every labeled claim
PEAKED_STANCES = (
    (0.0, 0.0, 0.0, 1.0),  # non-rumors draw comments
    (1.0, 0.0, 0.0, 0.0),  # true rumors draw support
    (0.0, 1.0, 0.0, 0.0),  # false rumors draw denials
    (0.0, 0.0, 1.0, 0.0),  # unverified rumors draw questions
)


def _make_trainer(dataset=None, **config_kw):
    kwargs = dict(embed_dim=16, hidden_dim=8, max_epochs=3, learning_rate=1e-3)
    kwargs.update(config_kw)
    config = RunConfig(**kwargs)
    if dataset is None:
        dataset = generate_synthetic(
            SynthConfig(n_claims=6, posts_per_claim=4, rng_seed=1)
        )
    sd = OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 10)))
    rv = OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 11)))
    return Trainer(config, dataset, sd, rv, HashedEmbedder(config.embed_dim))


def _constant_policy(trainer, logit):
    """Replace the policy with one whose decisions are effectively constant."""
    state_dim = 3 * trainer.config.embed_dim
    hidden = trainer.config.hidden_dim
    trainer.params = PolicyParams(
        w1=np.ones((hidden, state_dim)), w2=np.full(hidden, float(logit))
    )


def _spy_trajectories(monkeypatch) -> list:
    """Every trajectory `_process_claim` hands to the claim step, in order."""
    seen = []
    process = Trainer._process_claim

    def spy(self, claim):
        trajectory, failures = process(self, claim)
        if trajectory is not None:
            seen.append(trajectory)
        return trajectory, failures

    monkeypatch.setattr(Trainer, "_process_claim", spy)
    return seen


class FailingBackend:
    smoothing_alpha = 0.1

    def complete(self, task, prompt):
        raise AnnotatorError("backend down")


# -------------------------------------------------------------- epochs

def test_epoch_report_accounting():
    trainer = _make_trainer()
    n_claims = len(trainer._claims)
    report = trainer.run_epoch()
    assert report.epoch == 1
    assert report.claims_processed == n_claims
    assert report.claims_aborted == 0
    assert report.policy_updates == n_claims
    assert report.posts_annotated == n_claims * 4
    assert report.posts_retained + report.posts_discarded == report.posts_annotated
    assert report.annotator_failures == 0
    assert -1.0 <= report.mean_claim_reward <= 1.0
    assert -1.0 <= report.mean_post_reward <= 1.0
    assert report.wall_time_s >= 0.0
    assert trainer.reports == [report]
    assert len(trainer.buffer) == n_claims
    assert len(trainer.annotation_records) == report.posts_annotated
    assert trainer.optimizer.step == n_claims


def test_max_posts_caps_subsampling():
    trainer = _make_trainer(max_posts=2)
    report = trainer.run_epoch()
    assert report.posts_annotated == len(trainer._claims) * 2
    assert all(len(post_steps) == 2 for _claim_step, post_steps in trainer.buffer)


def test_run_epoch_limit_pauses_and_resumes():
    trainer = _make_trainer()
    assert trainer.run_epoch(limit=2) is None
    assert trainer._epoch_active
    report = trainer.run_epoch()
    assert report is not None
    assert report.claims_processed == len(trainer._claims)
    assert len(trainer.reports) == 1


def test_train_runs_to_max_epochs():
    trainer = _make_trainer(max_epochs=2)
    reports = trainer.train()
    assert [r.epoch for r in reports] == [1, 2]
    assert not trainer.terminated
    assert trainer._pretrained


def test_trailing_window_selection(monkeypatch):
    """Each update sees the trailing window; the buffer keeps nothing older."""
    windows = []
    update = engine.reinforce_update

    def spy(params, optimizer, trajectories, baseline=None):
        windows.append([id(claim_step) for claim_step, _posts in trajectories])
        update(params, optimizer, trajectories, baseline=baseline)

    monkeypatch.setattr(engine, "reinforce_update", spy)
    for window in (None, 2):
        windows.clear()
        trainer = _make_trainer(buffer_window=window)
        trainer.run_epoch(limit=4)
        newest = [seen[-1] for seen in windows]
        for k, seen in enumerate(windows):
            start = 0 if window is None else max(0, k + 1 - window)
            assert seen == newest[start:k + 1]
        assert [id(claim_step) for claim_step, _posts in trainer.buffer] == windows[-1]


def _buffered_steps(trainer):
    return [s for claim_step, post_steps in trainer.buffer
            for s in (claim_step, *post_steps)]


def test_each_buffered_state_is_held_once_by_the_replay_table(tmp_path):
    """With no window, every buffered step's state is a row of the buffer's
    replay table, before and after a resume; with a window of 2 the table
    holds exactly the rows of the trailing trajectories."""
    trainer = _make_trainer(buffer_window=None)
    trainer.run_epoch()
    assert trainer.run_epoch(limit=2) is None
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    resumed = Trainer.from_run_state(
        path, generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=4, rng_seed=1)),
        OracleAnnotator(rng=0), OracleAnnotator(rng=0), HashedEmbedder(16),
    )
    for run in (trainer, resumed):
        steps = _buffered_steps(run)
        rows = run.buffer.states
        assert len(run.buffer) == len(trainer._claims) + 2
        assert len(steps) == len(rows)
        for row, step in zip(rows, steps):
            assert np.shares_memory(step.state, rows)
            assert step.state.tobytes() == row.tobytes()
    resumed.run_epoch()  # the adopted block grows like any other
    assert all(np.shares_memory(s.state, resumed.buffer.states)
               for s in _buffered_steps(resumed))

    windowed = _make_trainer(buffer_window=2)
    for k in range(5):
        windowed.run_epoch(limit=1)
        steps = _buffered_steps(windowed)
        assert len(windowed.buffer) == min(k + 1, 2)
        assert windowed.buffer.states.tobytes() == \
            np.stack([s.state for s in steps]).tobytes()
        assert all(np.shares_memory(s.state, windowed.buffer.states) for s in steps)


def test_event_stream_schema():
    trainer = _make_trainer()
    events = []
    trainer.set_event_sink(events.append)
    report = trainer.run_epoch()
    assert len(events) == report.posts_annotated + report.claims_processed
    keys = {"ts", "epoch", "claim_id", "level", "action", "reward", "cosine",
            "p_retain"}
    for event in events:
        assert set(event) == keys
        assert event["epoch"] == 1
        assert event["level"] in ("post", "claim")
        assert event["action"] in ("retain", "discard")
        assert event["reward"] in (-1, 0, 1)
        assert 0.0 <= event["p_retain"] <= 1.0
    assert sum(e["level"] == "claim" for e in events) == report.claims_processed


# ----------------------------------------------------- rewards and gating

def test_nonseed_labels_are_masked():
    trainer = _make_trainer(seed_fraction=0.5, rng_seed=2)
    assert 0 < len(trainer.seed_ids) < len(trainer._claims)
    for claim_id, claim in trainer._claims.items():
        if claim_id in trainer.seed_ids:
            assert claim.veracity is not None
            assert trainer.truth[claim_id] == claim.veracity
        else:
            assert claim.veracity is None
            assert claim_id not in trainer.truth


def test_terminal_credit_broadcasts_claim_reward(monkeypatch):
    trajectories = _spy_trajectories(monkeypatch)
    trainer = _make_trainer(seed_fraction=1.0)
    trainer.run_epoch()
    assert len(trajectories) == len(trainer._claims)
    for trajectory in trajectories:
        assert trajectory.reward_branch == "labeled"
        assert len(trajectory.post_cosines) == len(trajectory.post_steps)
        for step, cosine in zip(trajectory.post_steps, trajectory.post_cosines):
            assert step.reward == trajectory.claim_step.reward
            assert cosine == trajectory.claim_cosine


def test_claim_retention_gates_context_and_finetune():
    trainer = _make_trainer(seed_fraction=0.5, rng_seed=11)
    _constant_policy(trainer, -500.0)
    report = trainer.run_epoch()
    assert report.claims_retained == 0
    assert report.posts_retained == 0
    assert trainer.claim_context.count == 0
    assert report.finetune_stance_examples == 0
    assert report.finetune_veracity_examples == 0
    assert trainer.finetune_stance == [] and trainer.finetune_veracity == []
    assert all(not r["retained"] for r in trainer.annotation_records)
    # starved veracity calls fall back to uniform verdicts, which score 0
    assert report.mean_claim_reward == 0.0


def test_full_retention_collects_examples_with_origins():
    trainer = _make_trainer(seed_fraction=0.5, rng_seed=11)
    _constant_policy(trainer, 500.0)
    report = trainer.run_epoch()
    n_claims = report.claims_processed
    assert report.claims_retained == n_claims
    assert report.posts_retained == report.posts_annotated
    assert trainer.claim_context.count == n_claims
    assert report.finetune_veracity_examples == n_claims
    assert report.finetune_stance_examples == report.posts_retained
    origins = [e.label_origin for e in trainer.finetune_veracity]
    assert origins.count("human") == len(trainer.seed_ids)
    assert origins.count("machine") == n_claims - len(trainer.seed_ids)
    assert all(e.label_origin == "machine" for e in trainer.finetune_stance)
    # reference stance statistics only ever see seed-claim posts
    seed_posts = sum(
        r["claim_id"] in trainer.seed_ids for r in trainer.annotation_records
    )
    assert sum(trainer.references.snapshot().values()) == seed_posts


def test_annotation_record_schema():
    trainer = _make_trainer()
    trainer.run_epoch()
    record = trainer.annotation_records[0]
    assert set(record) == {
        "epoch", "claim_id", "post_id", "post_text", "stance", "explanation",
        "retained",
    }
    assert record["epoch"] == 1
    assert record["stance"] in ("S", "D", "Q", "C")


# ------------------------------------------------------------ termination

def test_claim_level_termination_halts_training():
    dataset = generate_synthetic(SynthConfig(
        n_claims=8, posts_per_claim=3, noise_post_fraction=0.0,
        stance_given_veracity=PEAKED_STANCES, rng_seed=7,
    ))
    config = RunConfig(
        embed_dim=16, hidden_dim=4, seed_fraction=1.0, n_termination=3,
        max_epochs=10, rng_seed=5,
        sd_backend=BackendConfig(oracle_accuracy=1.0),
        rv_backend=BackendConfig(oracle_accuracy=1.0),
    )
    trainer = Trainer(
        config, dataset,
        OracleAnnotator(accuracy=1.0, rng=3),
        OracleAnnotator(accuracy=1.0, rng=4),
        HashedEmbedder(16),
    )
    _constant_policy(trainer, 500.0)
    reports = trainer.train()
    assert len(reports) == 1
    assert reports[0].terminated
    assert reports[0].claims_processed == 3  # three straight unit rewards
    assert trainer.terminated
    with pytest.raises(ConfigError, match="already terminated"):
        trainer.run_epoch()


def test_incremental_rewards_terminate_post_loops(monkeypatch):
    trajectories = _spy_trajectories(monkeypatch)
    dataset = generate_synthetic(SynthConfig(
        n_claims=4, posts_per_claim=6, noise_post_fraction=0.0,
        stance_given_veracity=PEAKED_STANCES, rng_seed=2,
    ))
    config = RunConfig(
        embed_dim=16, hidden_dim=4, seed_fraction=1.0,
        incremental_veracity=True, n_termination_posts=2, max_epochs=1,
        rng_seed=3,
        sd_backend=BackendConfig(oracle_accuracy=1.0),
        rv_backend=BackendConfig(oracle_accuracy=1.0),
    )
    trainer = Trainer(
        config, dataset,
        OracleAnnotator(accuracy=1.0, rng=1),
        OracleAnnotator(accuracy=1.0, rng=2),
        HashedEmbedder(16),
    )
    _constant_policy(trainer, 500.0)
    report = trainer.run_epoch()
    assert report.claims_processed == 4
    assert report.post_terminations == 4
    assert len(trajectories) == 4
    for trajectory in trajectories:
        assert trajectory.post_terminated
        assert len(trajectory.post_steps) == 2  # halted by the run of +1s
        assert all(s.reward == 1 for s in trajectory.post_steps)


# ---------------------------------------------------------- failure paths

def test_veracity_failure_aborts_claims():
    trainer = _make_trainer()
    trainer.rv = FailingBackend()
    n_claims = len(trainer._claims)
    report = trainer.run_epoch()
    assert report.claims_aborted == n_claims
    assert report.claims_processed == 0
    assert report.policy_updates == 0
    assert report.annotator_failures == n_claims
    assert report.mean_claim_reward == 0.0
    assert len(trainer.buffer) == 0


def test_stance_failures_are_counted_per_post():
    trainer = _make_trainer()
    trainer.sd = FailingBackend()
    n_claims = len(trainer._claims)
    report = trainer.run_epoch()
    assert report.annotator_failures == n_claims * 4
    assert report.posts_annotated == 0
    # claims still complete: the veracity oracle answers over an empty set
    assert report.claims_processed == n_claims
    assert all(post_steps == () for _claim_step, post_steps in trainer.buffer)


def test_wrong_typed_http_replies_are_counted_and_skipped(scripted_server):
    """JSON replies of the wrong type cost their claim or post, are counted
    in annotator_failures, and the run goes on."""
    dataset = generate_synthetic(SynthConfig(n_claims=3, posts_per_claim=3, rng_seed=1))
    config = RunConfig(embed_dim=16, hidden_dim=8, max_epochs=1, learning_rate=1e-3)
    oracle, hashed = OracleAnnotator(rng=0), HashedEmbedder(config.embed_dim)

    def annotate(body):
        reply = oracle.complete(body["task"], body["prompt"])
        return 200, {"label": reply.label, "explanation": reply.explanation,
                     "distribution": reply.distribution.tolist()}

    scripted_server.set_default("/annotate", annotate)
    scripted_server.set_default(
        "/embed", lambda body: (200, {"vector": hashed.embed(body["text"]).tolist()}))
    # The first claim's embedding gets a list body three times, the second
    # claim's a vector of strings: both claims are aborted. Then each of
    # the third claim's first two posts gets two replies of the wrong type.
    scripted_server.script("/embed", payload=[1, 2], repeat=3)
    scripted_server.script("/embed", payload={"vector": "abc"})
    for payload in ({"label": 5}, {"label": ["Support"]},
                    {"label": "Support", "distribution": ["a", "b", "c", "d"]},
                    {"label": "Support", "explanation": 7}):
        scripted_server.script("/annotate", payload=payload)
    http = BackendConfig(kind="http", endpoint=scripted_server.url, timeout=2.0)
    trainer = Trainer(config, dataset, HttpAnnotator(http), OracleAnnotator(rng=1),
                      ServiceEmbedder(scripted_server.url, config.embed_dim, timeout=2.0))
    report = trainer.run_epoch()
    assert report.claims_aborted == 2
    assert report.claims_processed == 1
    assert report.annotator_failures == 4
    assert report.posts_annotated == 1


class FlakyEmbedder(HashedEmbedder):
    """Raises EmbedError on one call, as a service embedder does once its
    retries are spent."""

    def __init__(self, d, fail_at):
        super().__init__(d)
        self.calls = 0
        self.fail_at = fail_at

    def embed(self, text):
        self.calls += 1
        if self.calls == self.fail_at:
            raise EmbedError("embedding service failed after retries")
        return super().embed(text)


def test_embed_failures_are_counted_and_skipped():
    dataset = generate_synthetic(
        SynthConfig(n_claims=10, posts_per_claim=6, rng_seed=1)
    )
    config = RunConfig(embed_dim=16, hidden_dim=8, max_epochs=1, learning_rate=1e-3)
    # In this run, embedding call 1 is the first claim, 2 a post explanation,
    # 7 a retained post's context, 10 the first verdict's explanation and 35
    # a retained claim's context; 50 falls mid-epoch. A failed claim or
    # verdict embedding aborts its claim; a failed post embedding skips it.
    for fail_at, aborted in ((1, 1), (2, 0), (7, 0), (10, 1), (35, 1), (50, 0)):
        trainer = Trainer(
            config, dataset,
            OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 10))),
            OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 11))),
            FlakyEmbedder(config.embed_dim, fail_at),
        )
        (report,) = trainer.train()
        assert report.claims_processed + report.claims_aborted == 10
        assert report.claims_aborted == aborted
        assert report.annotator_failures == 1


@pytest.mark.parametrize("fail_at, abstentions", [(1, 1), (5, 0)])
def test_evaluate_handles_embed_failures_as_training_does(fail_at, abstentions):
    """In this evaluation, embedding call 1 is the first claim and 5 a
    retained post's context: a failed claim embedding is a veracity
    abstention, a failed post embedding skips the post."""
    dataset = generate_synthetic(SynthConfig(n_claims=4, posts_per_claim=3, rng_seed=1))
    params = init_params(48, 8, np.random.default_rng(0))
    report = evaluate(dataset, OracleAnnotator(rng=1), OracleAnnotator(rng=2),
                      embedder=FlakyEmbedder(16, fail_at), params=params)
    assert report.veracity.n_instances == 4
    assert report.veracity.abstentions == abstentions
    assert report.veracity.n_scored == 4 - abstentions
    assert report.stance.abstentions == 0


def test_embedder_width_must_match_config():
    dataset = generate_synthetic(
        SynthConfig(n_claims=2, posts_per_claim=2, rng_seed=6)
    )
    config = RunConfig(embed_dim=16, hidden_dim=4)
    with pytest.raises(ConfigError, match="does not match configured"):
        Trainer(
            config, dataset, OracleAnnotator(rng=0), OracleAnnotator(rng=0),
            HashedEmbedder(8),
        )


# -------------------------------------------------------------- warm-up

def test_pretrain_oracle_backends_log_skips(caplog):
    trainer = _make_trainer()
    with caplog.at_level(logging.INFO, logger="claimsift.engine"):
        trainer.pretrain()
        trainer.pretrain()  # second call is a no-op
    messages = [r.message for r in caplog.records]
    assert sum("stance warm-up skipped" in m for m in messages) == 1
    assert sum("veracity warm-up skipped" in m for m in messages) == 1
    assert trainer._pretrained


def _http_sd_trainer(server, pretrain_path=None):
    dataset = generate_synthetic(
        SynthConfig(n_claims=2, posts_per_claim=2, rng_seed=8)
    )
    sd_cfg = BackendConfig(kind="http", endpoint=server.url, timeout=2.0)
    config = RunConfig(
        embed_dim=8, hidden_dim=2, sd_backend=sd_cfg,
        sd_pretrain_path=pretrain_path,
    )
    return Trainer(
        config, dataset, HttpAnnotator(sd_cfg), OracleAnnotator(rng=1),
        HashedEmbedder(8),
    )


def test_pretrain_sends_stance_warmup_over_http(tmp_path, scripted_server):
    rows = [
        {"prompt": "warming a", "target": "Stance: Support, Reason: a"},
        {"prompt": "warming b", "target": "Stance: Deny, Reason: b"},
    ]
    path = tmp_path / "warm.jsonl"
    path.write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
    )
    scripted_server.script("/finetune", payload={"job": "warm-1"})
    trainer = _http_sd_trainer(scripted_server, str(path))
    trainer.pretrain()
    assert trainer._pretrained
    route, body = scripted_server.requests[0]
    assert route == "/finetune"
    assert body["task"] == "stance"
    assert body["origin"] == "pretrain"
    assert body["examples"] == rows


def test_pretrain_requires_stance_warmup_path(scripted_server):
    trainer = _http_sd_trainer(scripted_server, None)
    with pytest.raises(ConfigError, match="sd_pretrain_path: required"):
        trainer.pretrain()


def test_pretrain_warmup_file_errors(tmp_path, scripted_server):
    trainer = _http_sd_trainer(scripted_server, str(tmp_path / "missing.jsonl"))
    with pytest.raises(ConfigError, match="file not found"):
        trainer.pretrain()

    partial = tmp_path / "partial.jsonl"
    partial.write_text('{"prompt": "x"}\n', encoding="utf-8")
    trainer = _http_sd_trainer(scripted_server, str(partial))
    with pytest.raises(DatasetError, match="needs 'prompt' and 'target'") as err:
        trainer.pretrain()
    assert err.value.line == 1

    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text('{"prompt": "a", "target": "b"}\n{oops\n', encoding="utf-8")
    trainer = _http_sd_trainer(scripted_server, str(malformed))
    with pytest.raises(DatasetError, match="malformed JSON") as err:
        trainer.pretrain()
    assert err.value.line == 2


def test_pretrain_sends_seed_claims_for_veracity_warmup(scripted_server):
    dataset = generate_synthetic(
        SynthConfig(n_claims=3, posts_per_claim=2, rng_seed=9)
    )
    rv_cfg = BackendConfig(kind="http", endpoint=scripted_server.url, timeout=2.0)
    config = RunConfig(
        embed_dim=8, hidden_dim=2, seed_fraction=1.0, rv_backend=rv_cfg
    )
    trainer = Trainer(
        config, dataset, OracleAnnotator(rng=1), HttpAnnotator(rv_cfg),
        HashedEmbedder(8),
    )
    scripted_server.script("/finetune", payload={"job": "warm-2"})
    trainer.pretrain()
    _, body = scripted_server.requests[0]
    assert body["task"] == "veracity"
    assert body["origin"] == "pretrain"
    assert len(body["examples"]) == 3
    for example in body["examples"]:
        assert example["target"].startswith("Veracity: ")
        assert example["target"].endswith("seed annotation.")
        assert "(Stance:" not in example["prompt"]


def test_pretrain_requires_seeds_for_http_veracity(scripted_server):
    dataset = generate_synthetic(
        SynthConfig(n_claims=3, posts_per_claim=2, rng_seed=9)
    )
    rv_cfg = BackendConfig(kind="http", endpoint=scripted_server.url, timeout=2.0)
    config = RunConfig(
        embed_dim=8, hidden_dim=2, seed_fraction=0.0, rv_backend=rv_cfg
    )
    trainer = Trainer(
        config, dataset, OracleAnnotator(rng=1), HttpAnnotator(rv_cfg),
        HashedEmbedder(8),
    )
    with pytest.raises(ConfigError, match="no seed claims available"):
        trainer.pretrain()


# ------------------------------------------------------------ persistence

def _fresh_trainer(config, dataset):
    sd = OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 10)))
    rv = OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 11)))
    return Trainer(config, dataset, sd, rv, HashedEmbedder(config.embed_dim))


def test_mid_epoch_resume_is_deterministic(tmp_path):
    dataset = generate_synthetic(
        SynthConfig(n_claims=6, posts_per_claim=4, rng_seed=4)
    )
    config = RunConfig(
        embed_dim=16, hidden_dim=8, max_epochs=2, learning_rate=1e-3,
        use_baseline=True, incremental_veracity=True, buffer_window=2,
        rng_seed=9,
    )
    first = _fresh_trainer(config, dataset)
    first.run_epoch()
    assert first.run_epoch(limit=3) is None  # pause inside epoch 2
    state_path = tmp_path / "run.state"
    first.save_run_state(state_path)
    report_first = first.run_epoch()

    resumed = Trainer.from_run_state(
        state_path, dataset, OracleAnnotator(rng=0), OracleAnnotator(rng=0),
        HashedEmbedder(16),
    )
    report_resumed = resumed.run_epoch()

    da, db = report_first.to_dict(), report_resumed.to_dict()
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert da == db
    np.testing.assert_array_equal(first.params.w1, resumed.params.w1)
    np.testing.assert_array_equal(first.params.w2, resumed.params.w2)
    assert first.annotation_records == resumed.annotation_records
    assert len(first.buffer) == len(resumed.buffer)
    assert first.optimizer.step == resumed.optimizer.step


def test_resume_rejects_different_dataset(tmp_path):
    dataset = generate_synthetic(
        SynthConfig(n_claims=4, posts_per_claim=3, rng_seed=5)
    )
    trainer = _fresh_trainer(RunConfig(embed_dim=8, hidden_dim=4), dataset)
    trainer.run_epoch(limit=1)
    path = tmp_path / "partial.state"
    trainer.save_run_state(path)
    other = generate_synthetic(
        SynthConfig(n_claims=5, posts_per_claim=3, rng_seed=5)
    )
    with pytest.raises(CheckpointError, match="different dataset"):
        Trainer.from_run_state(
            path, other, OracleAnnotator(rng=0), OracleAnnotator(rng=0),
            HashedEmbedder(8),
        )


def test_run_state_error_classes(tmp_path):
    dataset = generate_synthetic(
        SynthConfig(n_claims=2, posts_per_claim=2, rng_seed=5)
    )
    trainer = _fresh_trainer(RunConfig(embed_dim=8, hidden_dim=4), dataset)
    good = tmp_path / "good.state"
    trainer.save_run_state(good)

    def load_run_state(path):
        return Trainer.from_run_state(path, dataset, OracleAnnotator(rng=0),
                                      OracleAnnotator(rng=0), HashedEmbedder(8))

    load_run_state(good)  # sanity: the pristine file verifies
    blob = good.read_bytes()

    short = tmp_path / "short.state"
    short.write_bytes(blob[:10])
    with pytest.raises(CheckpointError, match="truncated run-state file"):
        load_run_state(short)

    clipped = tmp_path / "clipped.state"
    clipped.write_bytes(blob[:-2])
    with pytest.raises(CheckpointError, match="truncated run-state file"):
        load_run_state(clipped)

    magic = tmp_path / "magic.state"
    magic.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError, match="not a run-state file"):
        load_run_state(magic)

    version = tmp_path / "version.state"
    mutated = bytearray(blob)
    mutated[8] = 9
    version.write_bytes(bytes(mutated))
    with pytest.raises(CheckpointError, match="unsupported run-state version 9"):
        load_run_state(version)

    corrupt = tmp_path / "corrupt.state"
    mutated = bytearray(blob)
    mutated[25] ^= 0xFF
    corrupt.write_bytes(bytes(mutated))
    with pytest.raises(CheckpointError, match="run-state checksum mismatch"):
        load_run_state(corrupt)
