"""The benchmark's own tests: every check passes on real outputs of a small
round and fails when one output is deliberately corrupted.

Run from the root of the repository: python3 -m pytest bench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import threading
import urllib.request
from http.server import ThreadingHTTPServer

import numpy as np
import pytest

import checks
import latency_server
import run as bench_run
import worker
from tracer import Tracer
from workloads import CorpusSpec, Workload, subrun_seeds

TINY = Workload(
    name="tiny",
    train=CorpusSpec(8, 6),
    heldout=CorpusSpec(10, 8),
    config=dict(embed_dim=16, hidden_dim=8, max_epochs=2, max_posts=4,
                learning_rate=1e-3, use_baseline=True),
    mid_save_step=10,
    learning_report=True,
)


@pytest.fixture(scope="module")
def round_outputs(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("tiny")
    bench_run.generate_inputs(TINY, 3, run_dir)
    run = worker.Run(TINY, 3, run_dir)
    run.load_truth()
    summary, outputs = worker.run_round(run, worker.build(run), None)
    return summary, outputs


def failures_after(outputs, corrupt) -> list[str]:
    broken = copy.deepcopy(outputs)
    corrupt(broken)
    return checks.check_round(broken)


def test_checks_pass_on_real_outputs(round_outputs):
    summary, outputs = round_outputs
    assert checks.check_round(outputs) == []
    assert set(summary["learning"]) == {"trained", "untrained"}
    assert summary["claim_steps"] == 16
    assert summary["aborted_claims"] == 0


def _first_seed_step(out):
    return next(s for s in out["steps"] if s["seed"])


def _wrong_label(label):
    return {"Support": "Deny", "Deny": "Question", "Question": "Comment",
            "Comment": "Support"}[label]


CORRUPTIONS = {
    "stance labels off their markers": lambda out: [
        step.__setitem__("annotations", [
            (pid, text, _wrong_label(label), why)
            for pid, text, label, why in step["annotations"]
        ]) for step in out["steps"]
    ],
    "held-out stance F1 far from accuracy": lambda out: out["eval_reports"][0]["stance"]
    .__setitem__("micro_f1", 0.25),
    "seed reward with the wrong sign": lambda out: _first_seed_step(out)
    .__setitem__("claim_reward", -centered_sign(_first_seed_step(out)) or 1),
    "reward outside {-1, 0, 1}": lambda out: out["steps"][0]["post_rewards"]
    .__setitem__(0, 2),
    "optimizer step count off": lambda out: out.__setitem__(
        "optimizer_step", out["optimizer_step"] - 1),
    "non-finite parameters": lambda out: out["final_params"][1].__setitem__(0, np.nan),
    "a post sampled twice": lambda out: out["steps"][0]["annotations"].__setitem__(
        1, (out["steps"][0]["annotations"][0][0], *out["steps"][0]["annotations"][1][1:])),
    "a stance call about no post of the thread": lambda out: out["steps"][0][
        "annotations"].__setitem__(0, (None, *out["steps"][0]["annotations"][0][1:])),
    "a stance reply without a decision": lambda out: out["steps"][0]["post_retained"]
    .pop(),
    "more posts than max_posts": lambda out: out.__setitem__("max_posts", 1),
    "a fine-tune example dropped": lambda out: out["finetune_stance"].pop(),
    "a fine-tune target changed": lambda out: out["finetune_stance"].__setitem__(
        0, (*out["finetune_stance"][0][:2], "Stance: Deny, Reason:x")),
    "an evaluation abstention": lambda out: [
        report["veracity"].__setitem__("abstentions", 1) for report in out["eval_reports"]
    ],
    "repeated evaluations disagree": lambda out: out["eval_reports"].append(
        {**out["eval_reports"][0], "veracity": None}),
    "resume not bitwise": lambda out: out["resumed_params"][0].__setitem__(
        (0, 0), np.nextafter(out["resumed_params"][0][0, 0], np.inf)),
    "mid-epoch replay diverges": lambda out: out["replay_params"][1].__setitem__(
        0, out["replay_params"][1][0] + 1e-9),
}


def centered_sign(step):
    return checks.centered_cosine_sign(step["verdict"], step["truth"])


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_each_check_fails_on_corrupted_output(round_outputs, name):
    _summary, outputs = round_outputs
    assert checks.check_round(outputs) == []
    assert failures_after(outputs, CORRUPTIONS[name]) != [], name


def test_every_seed_reward_is_checked(round_outputs):
    _summary, outputs = round_outputs
    seeds = [s for s in outputs["steps"] if s["seed"]]
    assert seeds and all(s["claim_reward"] == centered_sign(s) for s in seeds)


def test_centered_cosine_sign_fixtures():
    assert checks.centered_cosine_sign([0.25] * 4, "T") == 0
    assert checks.centered_cosine_sign([0.1, 0.7, 0.1, 0.1], "T") == 1
    assert checks.centered_cosine_sign([0.025, 0.025, 0.925, 0.025], "T") == -1


def test_retain_gap():
    gap, se = checks.retain_gap([1.0, 3.0], [0.0, 0.0, 0.0])
    assert gap == 2.0 and se == pytest.approx(np.sqrt(2.0 / 2))


def test_binomial_bound():
    assert checks.within_binomial(900, 1000, 0.9)
    assert not checks.within_binomial(800, 1000, 0.9)
    assert not checks.within_binomial(0, 0, 0.9)


def test_server_count_check():
    server = {"requests": {"/annotate": 10, "/finetune": 2}, "non_200": 0}
    assert checks.check_server_counts(server, {"complete": 10, "finetune": 2}) == []
    assert checks.check_server_counts(server, {"complete": 9, "finetune": 2})
    assert checks.check_server_counts({**server, "non_200": 1},
                                      {"complete": 10, "finetune": 2})


def test_missing_wrap_target_is_reported_not_zero(monkeypatch):
    import claimsift.engine
    import claimsift.reward

    monkeypatch.delattr(claimsift.reward, "unlabeled_claim_reward")
    monkeypatch.delattr(claimsift.engine, "unlabeled_claim_reward")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "claimsift.reward.unlabeled_claim_reward" in tracer.missing
    layer = worker.layer_metrics(tracer)
    assert not any(name.startswith("reward.") for name in layer)
    assert "policy.update_calls" in layer


def test_tracer_restores_the_program():
    import claimsift.engine
    import claimsift.selection

    before = (claimsift.engine.annotate_post, claimsift.selection.PostSampler.sample)
    tracer = Tracer()
    tracer.install()
    assert claimsift.engine.annotate_post is not before[0]
    tracer.uninstall()
    assert (claimsift.engine.annotate_post,
            claimsift.selection.PostSampler.sample) == before


def test_traced_round_matches_untraced(tmp_path):
    bench_run.generate_inputs(TINY, 5, tmp_path)
    run = worker.Run(TINY, 5, tmp_path)
    run.load_truth()
    plain, _ = worker.run_round(run, worker.build(run), None)
    tracer = Tracer()
    tracer.install()
    traced, _ = worker.run_round(run, worker.build(run, tracer), tracer)
    assert traced["params_sha256"] == plain["params_sha256"]
    assert traced["run_log_sha256"] == plain["run_log_sha256"]
    layer = traced["trace"]
    assert layer["policy.update_calls"] == plain["claim_steps"]
    assert layer["selection.claim_draws"] == plain["claim_steps"]
    assert 0.0 < layer["engine.self_s"] < layer["engine.claim_step_s"]


@pytest.fixture
def latency_endpoint():
    counters = latency_server.Counters()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), latency_server.make_handler(counters, 0.0)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())


def test_latency_server_answers_as_a_function_of_the_request(latency_endpoint):
    body = {"task": "stance", "prompt": "claim [truth:t] post [sig:s]"}
    first = _post(latency_endpoint + "/annotate", body)
    _post(latency_endpoint + "/annotate", {"task": "stance", "prompt": "other [sig:d]"})
    assert _post(latency_endpoint + "/annotate", body) == first
    assert _post(latency_endpoint + "/finetune",
                 {"task": "stance", "examples": [{}, {}]}) == {"job": "ft-2"}
    with urllib.request.urlopen(latency_endpoint + "/stats", timeout=10) as resp:
        stats = json.loads(resp.read())
    assert stats == {"requests": {"/annotate": 3, "/finetune": 1}, "non_200": 0}


def test_checks_read_no_trainer_internals(tmp_path, monkeypatch):
    """A trainer that keeps only its last trajectory and no annotation
    records or fine-tune history still passes every check."""
    from claimsift.engine import Trainer

    original = Trainer.run_epoch

    def trimmed(self, limit=None):
        report = original(self, limit)
        del self.buffer[:-1]
        self.annotation_records.clear()
        self.finetune_stance.clear()
        return report

    monkeypatch.setattr(Trainer, "run_epoch", trimmed)
    workload = dataclasses.replace(TINY, config={**TINY.config, "buffer_window": 1})
    bench_run.generate_inputs(workload, 3, tmp_path)
    run = worker.Run(workload, 3, tmp_path)
    run.load_truth()
    summary, outputs = worker.run_round(run, worker.build(run), None)
    assert summary["claim_steps"] == 16
    assert len(outputs["steps"]) == 16 and outputs["finetune_stance"]
    assert checks.check_round(outputs) == []


def test_tracer_wraps_names_in_every_loaded_claimsift_module(monkeypatch):
    import sys
    import types

    import claimsift.annotators

    probe = types.ModuleType("claimsift.probe")
    probe.annotate_post = claimsift.annotators.annotate_post
    monkeypatch.setitem(sys.modules, "claimsift.probe", probe)
    tracer = Tracer()
    tracer.install()
    try:
        assert probe.annotate_post is not claimsift.annotators.annotate_post.__wrapped__
        assert probe.annotate_post is claimsift.annotators.annotate_post
    finally:
        tracer.uninstall()
    assert not hasattr(probe.annotate_post, "__wrapped__")


def test_subrun_seeds():
    assert subrun_seeds(TINY, 7) == [7]
    many = dataclasses.replace(TINY, subruns=4)
    assert len(set(subrun_seeds(many, 1) + subrun_seeds(many, 2))) == 8


def test_every_subrun_weighs_the_same_in_training_throughput():
    """A sub-run repeated three times counts once, like one run only once;
    evaluations, saves and resumes are medians over every repeat."""
    def round_(subrun, step_s, save_s):
        return {"subrun": subrun, "claim_steps": 2, "posts_annotated": 10,
                "step_times": [step_s, step_s], "eval_times": [step_s],
                "eval_posts": 5, "final_saves": [save_s], "resumes": [save_s],
                "state_bytes": (1 + subrun) << 20, "peak_rss_mb": 1.0}

    rounds = [round_(0, 1.0, 1.0)] * 3 + [round_(1, 3.0, 2.0)]
    workers = [{"setup_s": 1.0}]
    metrics = {k: v["value"] for k, v in bench_run.end_to_end(workers, rounds).items()}
    assert metrics["train_claims_per_s"] == 4 / 8
    assert metrics["train_posts_per_s"] == 20 / 8
    assert metrics["eval_posts_per_s"] == 5.0
    assert metrics["checkpoint_save_s"] == metrics["resume_s"] == 1.0
    assert metrics["run_state_mb"] == 1.5
