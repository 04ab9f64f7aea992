"""Confusion-matrix scoring and the end-to-end evaluation loop."""

from __future__ import annotations

import json
import re
import threading
import time
import zlib

import numpy as np
import pytest

from claimsift.annotators import BackendConfig, BackendReply, OracleAnnotator, make_backend
from claimsift.corpus import Claim, Dataset, Post, SynthConfig, generate_synthetic
from claimsift.errors import AnnotatorError, EmptyEvaluation
from claimsift.labels import STANCES, STANCE_NAMES, VERACITIES, VERACITY_NAMES
from claimsift.metrics import (
    ConfusionMatrix,
    evaluate,
    macro_f1,
    micro_f1,
    per_class_f1,
)
from claimsift.policy import PolicyParams
from claimsift.prompts import build_stance_prompt
from claimsift.state import HashedEmbedder
from conftest import Gauge


# ------------------------------------------------------------- scoring

def test_fixture_micro_and_macro():
    pairs = [("S", "S"), ("S", "D"), ("D", "D"), ("C", "C")]
    cm = ConfusionMatrix.from_pairs(pairs, STANCES)
    assert cm.total == 4
    assert micro_f1(cm) == pytest.approx(0.75, abs=1e-12)
    assert macro_f1(cm) == pytest.approx(7.0 / 9.0, abs=1e-12)
    f1 = per_class_f1(cm)
    assert f1["S"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert f1["D"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert f1["Q"] is None
    assert f1["C"] == pytest.approx(1.0)


def test_gold_only_class_scores_zero_not_none():
    cm = ConfusionMatrix.from_pairs([("Q", "C"), ("C", "C")], STANCES)
    f1 = per_class_f1(cm)
    assert f1["Q"] == 0.0  # present in gold, never predicted
    assert f1["S"] is None  # absent everywhere


def test_micro_f1_equals_accuracy_on_random_matrices():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        cm = ConfusionMatrix(VERACITIES)
        cm.counts[:] = rng.integers(0, 20, size=(4, 4))
        if cm.total == 0:
            cm.counts[0, 0] = 1
        accuracy = np.trace(cm.counts) / cm.total
        assert micro_f1(cm) == pytest.approx(accuracy, abs=1e-12)


def test_empty_matrix_raises():
    cm = ConfusionMatrix(STANCES)
    with pytest.raises(EmptyEvaluation):
        micro_f1(cm)
    with pytest.raises(EmptyEvaluation):
        macro_f1(cm)


# ------------------------------------------------------------ evaluate

class PerfectBackend:
    """Stateless backend that reads the synthetic markers verbatim."""

    smoothing_alpha = 0.1

    def __init__(self, fail_token: str | None = None, max_in_flight: int = 1):
        self.fail_token = fail_token
        self.max_in_flight = max_in_flight

    def complete(self, task, prompt):
        if self.fail_token and self.fail_token in prompt:
            raise AnnotatorError("scripted failure")
        if task == "stance":
            m = re.search(r"\[sig:(s|d|q|c)\]", prompt)
            name = STANCE_NAMES[m.group(1).upper()] if m else "Comment"
        else:
            m = re.search(r"\[truth:(n|t|f|u)\]", prompt)
            name = VERACITY_NAMES[m.group(1).upper()] if m else "Non-Rumor"
        return BackendReply(raw="", label=name, explanation="echo")


def _tiny_dataset() -> Dataset:
    posts1 = (
        Post("p1", "I support it [sig:s]", "a", 1, stance="S"),
        Post("p2", "is it real? FAILME [sig:q]", "b", 2, stance="Q"),
        Post("p3", "unrelated chatter [sig:none]", "c", 3),
    )
    posts2 = (Post("p4", "this is fake [sig:d]", "d", 1, stance="D"),)
    return Dataset("tiny", (
        Claim("c1", "first claim [truth:t]", "T", posts1),
        Claim("c2", "second claim [truth:f]", "F", posts2),
    ))


def test_evaluate_perfect_backends_score_one():
    report = evaluate(_tiny_dataset(), PerfectBackend(), PerfectBackend())
    assert report.stance.n_instances == 3
    assert report.stance.n_scored == 3
    assert report.stance.abstentions == 0
    assert report.stance.micro_f1 == 1.0
    assert report.stance.macro_f1 == 1.0
    assert report.veracity.n_instances == 2
    assert report.veracity.micro_f1 == 1.0
    blob = json.loads(report.to_json())
    assert blob["stance"]["micro_f1"] == 1.0
    assert blob["veracity"]["n_scored"] == 2


def test_evaluate_counts_abstentions():
    report = evaluate(
        _tiny_dataset(), PerfectBackend(fail_token="FAILME"), PerfectBackend()
    )
    assert report.stance.n_instances == 3
    assert report.stance.n_scored == 2
    assert report.stance.abstentions == 1
    assert report.stance.micro_f1 == 1.0  # surviving pairs are still perfect


def test_evaluate_all_abstentions_raises():
    sd = PerfectBackend(fail_token="[sig:")  # every stance prompt has a marker
    with pytest.raises(EmptyEvaluation, match="all stance instances abstained"):
        evaluate(_tiny_dataset(), sd, PerfectBackend())


def test_evaluate_all_discard_policy_yields_fallback_verdicts():
    # a policy that discards everything starves the veracity annotator; the
    # oracle then answers from its uniform fallback, i.e. always Non-Rumor
    params = PolicyParams(w1=np.ones((1, 24)), w2=np.array([-500.0]))
    report = evaluate(
        _tiny_dataset(),
        PerfectBackend(),
        OracleAnnotator(rng=3),
        embedder=HashedEmbedder(8),
        params=params,
    )
    confusion = np.asarray(report.veracity.confusion)
    assert report.veracity.n_scored == 2
    assert confusion[:, VERACITIES.index("N")].sum() == 2
    assert report.veracity.micro_f1 == 0.0


def test_evaluate_all_retain_policy_matches_no_policy():
    plain = evaluate(_tiny_dataset(), PerfectBackend(), OracleAnnotator(rng=5))
    params = PolicyParams(w1=np.ones((1, 24)), w2=np.array([500.0]))
    retained = evaluate(
        _tiny_dataset(),
        PerfectBackend(),
        OracleAnnotator(rng=5),
        embedder=HashedEmbedder(8),
        params=params,
    )
    assert retained.to_dict() == plain.to_dict()


def test_evaluate_concurrent_path_matches_sequential():
    ds = generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=5, rng_seed=3))
    seq = evaluate(ds, PerfectBackend(), PerfectBackend())
    par = evaluate(ds, PerfectBackend(max_in_flight=4), PerfectBackend(max_in_flight=4))
    assert par.to_dict() == seq.to_dict()


def test_evaluate_policy_requires_embedder():
    params = PolicyParams(w1=np.ones((1, 24)), w2=np.array([0.0]))
    with pytest.raises(EmptyEvaluation, match="requires an embedder"):
        evaluate(_tiny_dataset(), PerfectBackend(), PerfectBackend(), params=params)


def test_evaluate_empty_dataset():
    with pytest.raises(EmptyEvaluation, match="no claims"):
        evaluate(Dataset("empty"), PerfectBackend(), PerfectBackend())


def test_evaluate_requires_gold_labels():
    ds = Dataset("unlabeled", (
        Claim("c1", "no labels here", None, (Post("p1", "body", "a", 1),)),
    ))
    with pytest.raises(EmptyEvaluation, match="no gold labels"):
        evaluate(ds, PerfectBackend(), PerfectBackend())


# ------------------------------------------------------ evaluate, pipelined

def _crc(prompt):
    return zlib.crc32(prompt.encode("utf-8"))


class DelayedBackend(PerfectBackend):
    """Thread-safe fake annotator whose reply and delay (1-5 ms) are pure
    functions of the prompt, so concurrent calls finish out of order. With
    `faults`, a sixth of the prompts fail with AnnotatorError and another
    sixth get an unparseable reply. A prompt for which `explode(prompt)`
    holds raises RuntimeError at once; one for which `slow(prompt)` holds
    takes 0.2 s."""

    def __init__(self, gauge, faults=False, explode=None, slow=None, max_in_flight=1):
        super().__init__(max_in_flight=max_in_flight)
        self.gauge = gauge
        self.faults = faults
        self.explode = explode
        self.slow = slow
        self.prompts = []

    def complete(self, task, prompt):
        self.gauge.enter(task, prompt)
        try:
            self.prompts.append(prompt)
            if self.explode is not None and self.explode(prompt):
                raise RuntimeError("scripted bug")
            crc = _crc(prompt)
            slow = self.slow is not None and self.slow(prompt)
            time.sleep(0.2 if slow else (1 + crc % 5) / 1000)
            if self.faults and crc % 6 == 0:
                raise AnnotatorError("scripted failure")
            if self.faults and crc % 6 == 1:
                return BackendReply(raw="no idea")
            reply = super().complete(task, prompt)
            return BackendReply(raw="", label=reply.label, explanation=f"reason {crc % 3}")
        finally:
            self.gauge.leave(task, prompt)


class CallerThreadOracle(OracleAnnotator):
    """The oracle, recording each call's thread, task and prompt, and
    entering the gauge while it answers."""

    def __init__(self, rng, gauge=None):
        super().__init__(rng=rng)
        self.gauge = gauge or Gauge()
        self.calls = []

    def complete(self, task, prompt):
        self.calls.append((threading.get_ident(), task, prompt))
        self.gauge.enter(task, prompt)
        try:
            return super().complete(task, prompt)
        finally:
            self.gauge.leave(task, prompt)


def _mixed_policy():
    rng = np.random.default_rng(11)
    return PolicyParams(w1=rng.normal(size=(4, 24)), w2=3.0 * rng.normal(size=4))


def _pipelined_and_sequential(dataset, sd_bound, rv_bound=None, faults=False, params=None):
    """(report, gauge, sorted veracity prompts) of `evaluate` on two
    DelayedBackends with the given bounds (rv's defaults to sd's), then
    of the same with both bounds at 1."""
    runs = []
    for bounds in ((sd_bound, rv_bound or sd_bound), (1, 1)):
        gauge = Gauge()
        sd, rv = (DelayedBackend(gauge, faults, max_in_flight=bound) for bound in bounds)
        report = evaluate(dataset, sd, rv, embedder=HashedEmbedder(8), params=params)
        runs.append((report, gauge, sorted(rv.prompts)))
    return runs


@pytest.mark.parametrize("max_in_flight", [1, 2, 3])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
def test_pipelined_evaluate_keeps_the_bound_and_the_sequential_report(max_in_flight, faults):
    ds = generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=5, rng_seed=3))
    (report, gauge, verdict_prompts), (reference, _g, reference_prompts) = \
        _pipelined_and_sequential(ds, max_in_flight, faults=faults, params=_mixed_policy())
    assert gauge.peak == max_in_flight
    assert gauge.overlapped == (max_in_flight > 1)
    assert report.to_dict() == reference.to_dict()
    assert verdict_prompts == reference_prompts  # the same posts were retained
    retained = sum(prompt.count("\nPost ") for prompt in reference_prompts)
    assert 0 < retained < sum(len(claim.posts) for claim in ds.claims)  # mixed retains
    if faults:
        assert report.stance.abstentions > 0
        assert report.veracity.abstentions > 0


def test_pipelined_evaluate_passes_empty_threads_and_unlabeled_claims():
    synthetic = generate_synthetic(SynthConfig(n_claims=4, posts_per_claim=4, rng_seed=5))
    first, second, third, last = synthetic.claims
    ds = Dataset("edges", (
        Claim("empty-first", "a claim nobody answered [truth:t]", "T", ()),
        first,
        Claim(second.claim_id, second.text, None, second.posts),
        Claim("empty-unlabeled", "an unlabeled quiet claim", None, ()),
        third,
        Claim(last.claim_id, last.text, last.veracity, ()),
    ))
    (report, gauge, verdict_prompts), (reference, _g, reference_prompts) = \
        _pipelined_and_sequential(ds, 2)
    assert report.to_dict() == reference.to_dict()
    assert verdict_prompts == reference_prompts
    assert report.veracity.n_instances == len(verdict_prompts) == 4
    assert report.stance.n_instances == reference.stance.n_instances > 0


@pytest.mark.parametrize("oracle_side", ["rv", "sd"])
def test_a_sequential_backend_is_called_on_the_caller_thread_in_claim_order(oracle_side):
    ds = generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=5, rng_seed=3))
    caller = threading.get_ident()
    reports, oracles = [], []
    for in_flight in (2, 1):
        oracle = CallerThreadOracle(rng=7)
        other = DelayedBackend(Gauge(), max_in_flight=in_flight)
        sd, rv = (other, oracle) if oracle_side == "rv" else (oracle, other)
        reports.append(evaluate(ds, sd, rv, embedder=HashedEmbedder(8),
                                params=_mixed_policy()))
        oracles.append(oracle)
    pipelined, sequential = oracles
    assert {thread for thread, _task, _prompt in pipelined.calls} == {caller}
    assert pipelined.calls == sequential.calls
    assert reports[0].to_dict() == reports[1].to_dict()


def test_one_sequential_backend_on_both_sides_is_called_in_the_sequential_order():
    # No look-ahead on the caller thread: each claim's stance calls, then
    # its veracity call, before the next claim's first call.
    ds = generate_synthetic(SynthConfig(n_claims=4, posts_per_claim=3, rng_seed=3))
    oracle = CallerThreadOracle(rng=7)
    evaluate(ds, oracle, oracle)
    expected = [(task, claim.claim_id) for claim in ds.claims
                for task in ["stance"] * len(claim.posts) + ["veracity"]]
    called = [(task, claim.claim_id) for _thread, task, prompt in oracle.calls
              for claim in ds.claims if claim.text in prompt]
    assert called == expected


def test_a_backend_at_one_is_called_on_the_caller_thread_beside_a_pooled_one():
    ds = generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=5, rng_seed=3))
    (report, gauge, verdict_prompts), (reference, _g, reference_prompts) = \
        _pipelined_and_sequential(ds, 3, 1, params=_mixed_policy())
    assert gauge.threads["veracity"] == {threading.get_ident()}
    assert gauge.task_peaks["stance"] == 3
    assert report.to_dict() == reference.to_dict()
    assert verdict_prompts == reference_prompts


def test_the_pool_is_sized_to_the_smaller_bound():
    ds = generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=5, rng_seed=3))
    (report, gauge, verdict_prompts), (reference, _g, reference_prompts) = \
        _pipelined_and_sequential(ds, 3, 2, params=_mixed_policy())
    assert gauge.peak == 2
    assert gauge.overlapped
    assert report.to_dict() == reference.to_dict()
    assert verdict_prompts == reference_prompts


def test_a_pooled_veracity_backend_overlaps_a_sequential_stance_backend():
    # Claim 0's veracity call takes 0.2 s, so claim 1's stance calls, made
    # on the caller thread, run while it is in flight.
    ds = generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=5, rng_seed=3))
    caller = threading.get_ident()
    runs = []
    for bound in (2, 1):
        gauge = Gauge()
        oracle = CallerThreadOracle(rng=7, gauge=gauge)
        rv = DelayedBackend(gauge, slow=lambda prompt: ds.claims[0].text in prompt,
                            max_in_flight=bound)
        report = evaluate(ds, oracle, rv, embedder=HashedEmbedder(8), params=_mixed_policy())
        runs.append((report, gauge, oracle.calls))
    (report, gauge, calls), (reference, sequential, reference_calls) = runs
    assert gauge.overlapped and not sequential.overlapped
    assert gauge.threads["stance"] == {caller}
    assert caller not in gauge.threads["veracity"]
    assert calls == reference_calls
    assert report.to_dict() == reference.to_dict()


def test_an_oracle_built_with_a_bound_above_one_stays_on_the_caller_thread():
    ds = generate_synthetic(SynthConfig(n_claims=4, posts_per_claim=3, rng_seed=3))
    oracle = make_backend(BackendConfig(max_in_flight=8), rng=7)
    complete, threads = oracle.complete, set()

    def recorded(task, prompt):
        threads.add(threading.get_ident())
        return complete(task, prompt)

    oracle.complete = recorded
    report = evaluate(ds, oracle, oracle, embedder=HashedEmbedder(8), params=_mixed_policy())
    assert threads == {threading.get_ident()}
    reference = OracleAnnotator(rng=7)
    assert report.to_dict() == evaluate(ds, reference, reference, embedder=HashedEmbedder(8),
                                        params=_mixed_policy()).to_dict()


def test_the_next_claims_stance_calls_start_while_this_claims_are_awaited():
    # Claim 0's first stance call is slow; the other worker finishes claim
    # 0's remaining posts and, with one claim of look-ahead, goes on to
    # claim 1's stance calls before the slow one ends.
    ds = generate_synthetic(SynthConfig(n_claims=3, posts_per_claim=3, rng_seed=3))
    claims = ds.claims
    slow_prompt = build_stance_prompt(claims[0], claims[0].posts[0])
    gauge = Gauge()
    evaluate(ds, DelayedBackend(gauge, slow=slow_prompt.__eq__, max_in_flight=2),
             DelayedBackend(gauge, max_in_flight=2))
    slow_end = gauge.events.index(("end", "stance", slow_prompt))
    assert any(task == "stance" and claims[1].text in prompt
               for event, task, prompt in gauge.events[:slow_end] if event == "start")


@pytest.mark.parametrize("task", ["stance", "veracity"])
def test_an_unexpected_error_propagates_and_cancels_the_queued_calls(task):
    # Claim 2's first stance call (or its veracity call) raises while both
    # workers are held by slow calls; what is queued behind them, claim 3's
    # stance calls (or its veracity call), never starts.
    ds = generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=5, rng_seed=3))
    claims = ds.claims
    gauge = Gauge()
    if task == "stance":
        first = build_stance_prompt(claims[2], claims[2].posts[0])
        sd = DelayedBackend(gauge, explode=first.__eq__,
                            slow=lambda prompt: claims[2].text in prompt, max_in_flight=2)
        rv = DelayedBackend(gauge, max_in_flight=2)
    else:
        sd = DelayedBackend(gauge, slow=lambda prompt: claims[4].text in prompt,
                            max_in_flight=2)
        rv = DelayedBackend(gauge, explode=lambda prompt: claims[2].text in prompt,
                            max_in_flight=2)
    with pytest.raises(RuntimeError, match="scripted bug"):
        evaluate(ds, sd, rv)
    started = gauge.starts
    assert gauge.now == {"stance": 0, "veracity": 0}
    asked = sd.prompts if task == "stance" else rv.prompts
    assert not any(claims[3].text in prompt for prompt in asked)
    time.sleep(0.05)
    assert gauge.starts == started
