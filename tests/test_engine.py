"""Training engine: epochs, rewards, termination, warm-up, resumption."""

from __future__ import annotations

import json
import logging
import threading
import time

import numpy as np
import pytest

from claimsift import engine, policy
from claimsift.annotators import BackendConfig, BackendReply, HttpAnnotator, OracleAnnotator
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
from conftest import Gauge

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
    assert trainer.reports == [report]
    assert len(trainer.buffer) == n_claims
    assert len(trainer.annotation_records) == report.posts_annotated
    assert trainer.optimizer.step == n_claims


def test_policy_updates_count_only_updates_that_stepped(monkeypatch):
    """An update dropped for a non-finite gradient is not counted."""
    gradients, calls = policy.gradients, []

    def every_other_nan(params, table, **kwargs):
        g_w1, g_w2 = gradients(params, table, **kwargs)
        calls.append(None)
        return (g_w1 * np.nan, g_w2) if len(calls) % 2 == 0 else (g_w1, g_w2)

    monkeypatch.setattr(policy, "gradients", every_other_nan)
    trainer = _make_trainer()
    report = trainer.run_epoch()
    assert report.claims_processed == len(calls) == 6
    assert report.policy_updates == trainer.optimizer.step == 3


def test_max_posts_caps_subsampling():
    trainer = _make_trainer(max_posts=2)
    report = trainer.run_epoch()
    assert report.posts_annotated == len(trainer._claims) * 2
    assert all(len(post_steps) == 2 for _claim_step, post_steps in trainer.buffer)


def test_run_epoch_limit_pauses_and_resumes():
    trainer = _make_trainer()
    assert trainer.run_epoch(limit=2) is None
    assert trainer._epoch is not None
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


def _trajectory_rows(table):
    """Each trajectory's rows in a replay table: its claim reward, its post
    rewards and the bytes of its state rows."""
    rows, start, states = [], 0, table.dense_states()
    for claim_reward, post_rewards in table:
        end = start + 1 + len(post_rewards)
        rows.append((float(claim_reward), tuple(post_rewards.tolist()),
                     states[start:end].tobytes()))
        start = end
    assert start == len(states)
    return rows


def test_trailing_window_selection(monkeypatch):
    """Each update sees the trailing window; the buffer keeps nothing older."""
    windows = []
    update = engine.reinforce_update

    def spy(params, optimizer, trajectories, baseline=None):
        windows.append(_trajectory_rows(trajectories))
        update(params, optimizer, trajectories, baseline=baseline)

    monkeypatch.setattr(engine, "reinforce_update", spy)
    for window in (None, 2):
        windows.clear()
        trainer = _make_trainer(buffer_window=window)
        trainer.run_epoch(limit=4)
        newest = [seen[-1] for seen in windows]
        assert len(set(newest)) == 4  # each update appended a trajectory of its own
        for k, seen in enumerate(windows):
            start = 0 if window is None else max(0, k + 1 - window)
            assert seen == newest[start:k + 1]
        assert _trajectory_rows(trainer.buffer) == windows[-1]


def test_replay_table_holds_the_rows_of_the_buffered_steps(monkeypatch, tmp_path):
    """With no window, the buffer's replay table holds a copy of each
    buffered step's state, action and reward, before and after a resume and
    once the adopted block has grown; with a window of 2 it holds exactly
    the rows of the trailing trajectories."""
    trajectories = _spy_trajectories(monkeypatch)

    def expected_rows(window):
        steps = [s for t in trajectories[-window:]
                 for s in (t.claim_step, *t.post_steps)]
        return (np.stack([s.state for s in steps]).tobytes(),
                [s.action == "retain" for s in steps], [s.reward for s in steps])

    def rows(run):
        return (run.buffer.dense_states().tobytes(), run.buffer.retain.tolist(),
                run.buffer.reward.tolist())

    trainer = _make_trainer(buffer_window=None)
    trainer.run_epoch()
    assert trainer.run_epoch(limit=2) is None
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    resumed = Trainer.from_run_state(
        path, generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=4, rng_seed=1)),
        OracleAnnotator(rng=0), OracleAnnotator(rng=0), HashedEmbedder(16),
    )
    n_claims = len(trainer._claims)
    for run in (trainer, resumed):
        assert len(run.buffer) == n_claims + 2
        assert rows(run) == expected_rows(n_claims + 2)
    trainer.run_epoch()
    assert len(trainer.buffer) == 2 * n_claims
    assert rows(trainer) == expected_rows(2 * n_claims)
    resumed.run_epoch()  # the adopted block grows like any other
    assert rows(resumed) == rows(trainer)

    trajectories.clear()
    windowed = _make_trainer(buffer_window=2)
    for k in range(5):
        windowed.run_epoch(limit=1)
        assert len(windowed.buffer) == min(k + 1, 2)
        assert rows(windowed) == expected_rows(2)


def _dense_gradients(params, table, claim_shift=0.0, post_shift=0.0):
    """The update's gradients over the stacked states of a replay table, as
    they were computed before the table was factored."""
    states = table.dense_states()
    pre = states @ params.w1.T
    hidden = np.maximum(pre, 0.0)
    p = policy._sigmoid(hidden @ params.w2)
    g_z = np.where(table.retain, 1.0 - p, -p) * table.weights(claim_shift, post_shift)
    back = (g_z[:, None] * params.w2[None, :]) * (pre > 0.0).astype(np.float64)
    return back.T @ states, hidden.T @ g_z


@pytest.mark.parametrize("window", [None, 2])
def test_factored_update_makes_the_decisions_of_the_dense_one(monkeypatch, window):
    """Only the grouping of float64 sums differs from the dense update: a
    run with the dense gradients patched in makes the same decisions and
    rewards, with p_retain within 1e-12 and close final parameters."""
    dataset = generate_synthetic(SynthConfig(n_claims=10, posts_per_claim=6, rng_seed=3))
    runs = []
    for dense in (False, True):
        if dense:
            monkeypatch.setattr(policy, "gradients", _dense_gradients)
        trainer = _make_trainer(dataset, buffer_window=window, learning_rate=3e-2,
                                use_baseline=True, seed_fraction=0.5)
        events = []
        trainer.set_event_sink(events.append)
        trainer.train()
        runs.append((events, trainer.params))
    (factored, params), (reference, dense_params) = runs
    assert len(factored) == len(reference) > 100
    assert [{k: v for k, v in e.items() if k != "p_retain"}
            for e in factored] == [{k: v for k, v in e.items() if k != "p_retain"}
                                   for e in reference]
    assert max(abs(a["p_retain"] - b["p_retain"])
               for a, b in zip(factored, reference)) <= 1e-12
    np.testing.assert_allclose(params.w1, dense_params.w1, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(params.w2, dense_params.w2, rtol=1e-9, atol=1e-12)


def test_event_stream_schema():
    trainer = _make_trainer()
    events = []
    trainer.set_event_sink(events.append)
    report = trainer.run_epoch()
    assert len(events) == report.posts_annotated + report.claims_processed
    keys = {"epoch", "claim_id", "level", "action", "reward", "cosine",
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

def test_claim_level_termination_halts_training(tmp_path):
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

    path = tmp_path / "run.state"
    trainer.save_run_state(path)  # a trainer resumed from the end stays halted
    resumed = Trainer.from_run_state(
        path, dataset, OracleAnnotator(accuracy=1.0, rng=0),
        OracleAnnotator(accuracy=1.0, rng=0), HashedEmbedder(16),
    )
    assert resumed.terminated
    assert resumed.train() == resumed.reports
    assert [r.to_dict() for r in resumed.reports] == [r.to_dict() for r in reports]
    with pytest.raises(ConfigError, match="already terminated"):
        resumed.run_epoch()


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
    assert [len(post_rewards) for _reward, post_rewards in trainer.buffer] == \
        [0] * n_claims
    assert len(trainer.buffer.retain) == n_claims  # one claim row each


class OffSimplexStance(OracleAnnotator):
    """Stance replies whose distribution sums to 1 within 1e-6 only while
    its -1e-9 entry counts: clipped to 0, the sum is 1.0000010001."""

    def complete(self, task, prompt):
        if task == "stance":
            return BackendReply(raw="", label="Support",
                                distribution=[1.0000010001, -1e-9, 0.0, 0.0])
        return super().complete(task, prompt)


@pytest.mark.parametrize("incremental", [False, True])
def test_a_reply_off_the_simplex_once_clipped_is_a_counted_failure(incremental):
    """Such a reply is a ParseError: asked for once more, then counted, and
    training finishes instead of raising RewardError in the reward."""
    trainer = _make_trainer(max_epochs=1, seed_fraction=1.0,
                            incremental_veracity=incremental)
    trainer.sd = OffSimplexStance(rng=0)
    (report,) = trainer.train()
    n_claims = len(trainer._claims)
    assert report.claims_processed == n_claims
    assert report.posts_annotated == 0
    assert report.annotator_failures == n_claims * 4


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


def test_cut_short_http_replies_are_counted_and_training_finishes(cut_short_server):
    """A reply body shorter than its Content-Length is a failed attempt like
    any transport error: each post's stance call fails after its retries,
    is counted in annotator_failures, and the run ends normally."""
    dataset = generate_synthetic(SynthConfig(n_claims=2, posts_per_claim=2, rng_seed=1))
    config = RunConfig(embed_dim=16, hidden_dim=8, max_epochs=1, learning_rate=1e-3)
    http = BackendConfig(kind="http", endpoint=cut_short_server.url, timeout=2.0)
    trainer = Trainer(config, dataset, HttpAnnotator(http), OracleAnnotator(rng=1),
                      HashedEmbedder(config.embed_dim))
    (report,) = trainer.train()
    assert report.annotator_failures == 4
    assert report.posts_annotated == 0
    assert report.claims_processed == 2
    assert cut_short_server.requests == 4 * 3


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


# ------------------------------------- fine-tunes and warm-ups, paired

class FineTuneGauge(OracleAnnotator):
    """The oracle with a request bound and fine-tune requests that enter
    `gauge` (as their origin) and take 50 ms, or raise `fail` at once if
    given."""

    def __init__(self, gauge, max_in_flight=1, fail=None, rng=0):
        super().__init__(rng=rng)
        self.gauge = gauge
        self.max_in_flight = max_in_flight
        self.fail = fail
        self.finetunes = []

    def finetune(self, task, examples, origin="selected"):
        self.gauge.enter(task, origin)
        try:
            self.finetunes.append((task, origin, len(examples)))
            if self.fail is not None:
                raise self.fail
            time.sleep(0.05)
            return "job"
        finally:
            self.gauge.leave(task, origin)


def _retaining_trainer(gauge, sd_bound=1, rv_bound=1, sd_fail=None, rv_fail=None,
                       **config_kw):
    """A trainer that keeps every claim and post, so each epoch ends with a
    stance and a veracity fine-tune, on two FineTuneGauge backends."""
    trainer = _make_trainer(**config_kw)
    _constant_policy(trainer, 50.0)
    trainer.sd = FineTuneGauge(gauge, sd_bound, sd_fail, rng=1)
    trainer.rv = FineTuneGauge(gauge, rv_bound, rv_fail, rng=2)
    return trainer


@pytest.mark.parametrize("bound", [1, 2])
def test_epoch_end_fine_tunes_go_out_together_within_each_bound(bound):
    gauge = Gauge()
    trainer = _retaining_trainer(gauge, bound, bound)
    threads = threading.active_count()
    report = trainer.run_epoch()
    assert report.finetune_stance_examples and report.finetune_veracity_examples
    assert gauge.task_peaks == {"stance": 1, "veracity": 1}
    assert gauge.peak == bound
    assert gauge.overlapped == (bound > 1)
    if bound == 1:
        assert gauge.events == [("start", "stance", "selected"), ("end", "stance", "selected"),
                                ("start", "veracity", "selected"),
                                ("end", "veracity", "selected")]
        assert gauge.threads == {"stance": {threading.get_ident()},
                                 "veracity": {threading.get_ident()}}
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", ["sd", "rv"])
@pytest.mark.parametrize("bound", [1, 2])
def test_a_failed_fine_tune_is_logged_and_the_other_still_sent(failing, bound, caplog):
    gauge = Gauge()
    fail = {f"{failing}_fail": AnnotatorError("fine-tune endpoint down")}
    trainer = _retaining_trainer(gauge, bound, bound, **fail)
    with caplog.at_level(logging.WARNING, logger="claimsift.annotators"):
        report = trainer.run_epoch()
    assert report is not None and trainer.reports == [report]
    assert [r.message for r in caplog.records] == [
        "fine-tune request failed, continuing: fine-tune endpoint down"]
    assert [call[:2] for call in trainer.sd.finetunes] == [("stance", "selected")]
    assert [call[:2] for call in trainer.rv.finetunes] == [("veracity", "selected")]


@pytest.mark.parametrize("failing", ["sd", "rv"])
@pytest.mark.parametrize("bound", [1, 2])
def test_an_unexpected_fine_tune_error_is_raised_after_the_other_call(failing, bound):
    gauge = Gauge()
    fail = {f"{failing}_fail": RuntimeError("scripted bug")}
    trainer = _retaining_trainer(gauge, bound, bound, **fail)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="scripted bug"):
        trainer.run_epoch()
    # both calls had ended when the error came out, and no thread is left
    assert gauge.now == {"stance": 0, "veracity": 0}
    assert [event for event, _task, _what in gauge.events].count("end") == 2
    assert threading.active_count() == threads


def test_one_backend_for_both_tasks_at_one_is_called_in_turn_on_the_caller_thread():
    gauge = Gauge()
    trainer = _retaining_trainer(gauge)
    trainer.sd = trainer.rv = FineTuneGauge(gauge, rng=1)
    trainer.run_epoch()
    assert gauge.peak == 1
    assert [(event, task) for event, task, _what in gauge.events] == [
        ("start", "stance"), ("end", "stance"), ("start", "veracity"), ("end", "veracity")]
    assert gauge.threads == {"stance": {threading.get_ident()},
                             "veracity": {threading.get_ident()}}


def _warm_up_trainer(tmp_path, gauge, bound, sd_fail=None, rv_fail=None):
    """A trainer whose config names HTTP backends, so both warm-ups are
    sent, to two FineTuneGauge backends."""
    path = tmp_path / "warm.jsonl"
    path.write_text(json.dumps({"prompt": "p", "target": "Stance: Support, Reason: r"})
                    + "\n", encoding="utf-8")
    http = BackendConfig(kind="http", endpoint="http://127.0.0.1:1", max_in_flight=bound)
    config = RunConfig(embed_dim=8, hidden_dim=2, max_epochs=1, seed_fraction=1.0,
                       sd_backend=http, rv_backend=http, sd_pretrain_path=str(path))
    dataset = generate_synthetic(SynthConfig(n_claims=3, posts_per_claim=2, rng_seed=9))
    return Trainer(config, dataset, FineTuneGauge(gauge, bound, sd_fail, rng=1),
                   FineTuneGauge(gauge, bound, rv_fail, rng=2), HashedEmbedder(8))


@pytest.mark.parametrize("bound", [1, 2])
def test_the_two_warm_ups_go_out_together_within_each_bound(tmp_path, bound):
    gauge = Gauge()
    trainer = _warm_up_trainer(tmp_path, gauge, bound)
    trainer.pretrain()
    assert trainer._pretrained
    assert trainer.sd.finetunes == [("stance", "pretrain", 1)]
    assert trainer.rv.finetunes == [("veracity", "pretrain", 3)]
    assert gauge.overlapped == (bound > 1)
    if bound == 1:
        assert [(event, task) for event, task, _what in gauge.events] == [
            ("start", "stance"), ("end", "stance"), ("start", "veracity"), ("end", "veracity")]


@pytest.mark.parametrize("bound", [1, 2])
def test_a_failed_stance_warm_up_raises_first_and_leaves_the_run_not_warmed(tmp_path, bound):
    gauge = Gauge()
    trainer = _warm_up_trainer(tmp_path, gauge, bound,
                               sd_fail=AnnotatorError("stance warm-up down"),
                               rv_fail=AnnotatorError("veracity warm-up down"))
    with pytest.raises(AnnotatorError, match="stance warm-up down"):
        trainer.train()
    assert not trainer._pretrained
    assert trainer.epoch_index == 0
    assert trainer.rv.finetunes == [("veracity", "pretrain", 3)]


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

    assert report_first == report_resumed
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
