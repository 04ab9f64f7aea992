"""Embedding providers, context accumulation, and selector-state assembly."""

from __future__ import annotations

import zlib
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimsift import engine
from claimsift.annotators import OracleAnnotator
from claimsift.config import RunConfig
from claimsift.corpus import SynthConfig, generate_synthetic
from claimsift.errors import ConfigError, EmbedError, PolicyError, StateError, from_json
from claimsift.policy import LEVEL_POST, RETAIN, PolicyParams, init_params, sample_action
from claimsift.state import (
    EMBED_MEMO_SIZE,
    ContextAccumulator,
    EmbedConfig,
    HashedEmbedder,
    PostDecider,
    ServiceEmbedder,
    build_embedder,
    build_state,
    pack_claim_text,
    pack_post_text,
)


# ---------------------------------------------------------- hashed

def test_hashed_embedding_matches_frozen_vector():
    # crc32 buckets at d=8: gamma -> 1, alpha -> 2 (twice), beta -> 3
    vec = HashedEmbedder(8).embed("alpha beta alpha gamma")
    expected = np.array([0, 1, 2, 1, 0, 0, 0, 0], dtype=np.float64) / np.sqrt(6)
    np.testing.assert_allclose(vec, expected, atol=1e-15)


def test_hashed_embedding_is_deterministic_across_instances():
    a = HashedEmbedder(64).embed("some post text with words")
    b = HashedEmbedder(64).embed("some post text with words")
    np.testing.assert_array_equal(a, b)


def test_hashed_embedding_is_case_insensitive():
    emb = HashedEmbedder(32)
    np.testing.assert_array_equal(emb.embed("Flood WARNING"), emb.embed("flood warning"))


def test_hashed_embedding_has_unit_norm_or_zero():
    emb = HashedEmbedder(16)
    assert np.linalg.norm(emb.embed("three word text")) == pytest.approx(1.0)
    np.testing.assert_array_equal(emb.embed(""), np.zeros(16))
    np.testing.assert_array_equal(emb.embed("   "), np.zeros(16))


def _fresh_embedding(text: str, d: int) -> np.ndarray:
    vec = np.zeros(d)
    for token in text.lower().split():
        vec[zlib.crc32(token.encode("utf-8")) % d] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0.0 else vec


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.text(max_size=40), min_size=1, max_size=8),
       d=st.integers(1, 32))
def test_memoised_embeddings_equal_a_fresh_computation_bitwise(texts, d):
    emb = HashedEmbedder(d)
    for text in texts + texts[::-1]:  # the second pass is served from the memo
        assert emb.embed(text).tobytes() == _fresh_embedding(text, d).tobytes()


def test_memoised_embedding_is_read_only_and_shared():
    emb = HashedEmbedder(16)
    vec = emb.embed("breaking news flood")
    assert emb.embed("breaking news flood") is vec
    with pytest.raises(ValueError):
        vec[0] = 1.0
    with pytest.raises(ValueError):
        vec /= 2.0
    assert vec.tobytes() == _fresh_embedding("breaking news flood", 16).tobytes()


def test_embedding_memo_never_exceeds_its_capacity():
    emb = HashedEmbedder(4)
    texts = [f"text number {i}" for i in range(EMBED_MEMO_SIZE + 50)]
    for text in texts:
        emb.embed(text)
        assert emb._memo.cache_info().currsize <= EMBED_MEMO_SIZE
    assert emb._memo.cache_info().currsize == EMBED_MEMO_SIZE
    # the oldest text was evicted and is computed again, to the same vector
    assert emb.embed(texts[0]).tobytes() == _fresh_embedding(texts[0], 4).tobytes()
    assert emb._memo.cache_info().currsize == EMBED_MEMO_SIZE


def test_hashed_embedder_rejects_bad_width():
    with pytest.raises(ConfigError) as err:
        HashedEmbedder(0)
    assert "embed_dim" in str(err.value)


# ---------------------------------------------------------- service

def test_service_embedder_returns_vector(scripted_server):
    scripted_server.script("/embed", payload={"vector": [1.0, 2.0, 3.0]})
    emb = ServiceEmbedder(scripted_server.url, 3, timeout=2.0)
    np.testing.assert_array_equal(emb.embed("hello"), [1.0, 2.0, 3.0])
    path, body = scripted_server.requests[0]
    assert path == "/embed"
    assert body == {"text": "hello"}


def test_service_embedder_retries_5xx(scripted_server):
    scripted_server.script("/embed", status=502, payload={"e": 1})
    scripted_server.script("/embed", payload={"vector": [0.0, 1.0]})
    emb = ServiceEmbedder(scripted_server.url, 2, timeout=2.0)
    np.testing.assert_array_equal(emb.embed("x"), [0.0, 1.0])
    assert len(scripted_server.calls("/embed")) == 2


def test_service_embedder_4xx_fails_immediately(scripted_server):
    scripted_server.script("/embed", status=400, payload={"e": 1})
    emb = ServiceEmbedder(scripted_server.url, 2, timeout=2.0)
    with pytest.raises(EmbedError) as err:
        emb.embed("x")
    assert "rejected the request with 400" in str(err.value)
    assert len(scripted_server.calls("/embed")) == 1


def test_service_embedder_non_json_is_retried_then_fails(scripted_server):
    emb = ServiceEmbedder(scripted_server.url, 2, timeout=2.0)
    # a body that is not JSON, then one that is JSON but not an object
    for body, reason in (("plain text", "non-JSON body"), ("[1, 2]", "non-object body")):
        before = len(scripted_server.calls("/embed"))
        scripted_server.script("/embed", payload=body, repeat=3)
        with pytest.raises(EmbedError) as err:
            emb.embed("x")
        assert "failed after retries" in str(err.value)
        assert reason in str(err.value)
        assert len(scripted_server.calls("/embed")) - before == 3


def test_service_embedder_rejects_malformed_vector(scripted_server):
    emb = ServiceEmbedder(scripted_server.url, 3, timeout=2.0)
    vectors = ([1.0, 2.0], "abc", ["a", "b", "c"], [1.0, [2.0], 3.0],
               {"x": 1.0}, None, [1.0, float("nan"), 2.0])
    for vector in vectors:
        scripted_server.script("/embed", payload={"vector": vector})
        with pytest.raises(EmbedError) as err:
            emb.embed("x")
        assert "malformed vector" in str(err.value)
        assert "expected 3 finite values" in str(err.value)
    # a malformed vector is an answer, not a transport failure: no retry
    assert len(scripted_server.calls("/embed")) == len(vectors)


def test_service_embedder_constructor_errors():
    with pytest.raises(ConfigError):
        ServiceEmbedder("http://x", 0)
    with pytest.raises(ConfigError):
        ServiceEmbedder("", 4)


def test_build_embedder_kinds(scripted_server):
    assert isinstance(build_embedder(EmbedConfig(), 8), HashedEmbedder)
    cfg = EmbedConfig(kind="service", endpoint=scripted_server.url)
    assert isinstance(build_embedder(cfg, 8), ServiceEmbedder)


@pytest.mark.parametrize("cfg,fragment", [
    (EmbedConfig(kind="dense"), "must be 'hashed' or 'service'"),
    (EmbedConfig(kind="service"), "endpoint: required"),
    (EmbedConfig(timeout=0), "timeout"),
])
def test_embed_config_validation(cfg, fragment):
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert fragment in str(err.value)


def test_embed_config_round_trip_and_unknown_keys():
    cfg = EmbedConfig(kind="service", endpoint="http://x", timeout=5.0)
    assert from_json(EmbedConfig, asdict(cfg), "embed_backend") == cfg
    with pytest.raises(ConfigError) as err:
        from_json(EmbedConfig, {"knid": "hashed"}, "embed_backend")
    assert "embed_backend: unknown keys ['knid']" in str(err.value)


# ------------------------------------------------------ accumulation

def test_context_accumulator_running_mean():
    acc = ContextAccumulator(3)
    np.testing.assert_array_equal(acc.mean(), np.zeros(3))
    acc.add(np.array([1.0, 0.0, 2.0]))
    acc.add(np.array([3.0, 4.0, 0.0]))
    np.testing.assert_allclose(acc.mean(), [2.0, 2.0, 1.0])
    assert acc.count == 2


def test_context_accumulator_rejects_width_mismatch():
    acc = ContextAccumulator(3)
    with pytest.raises(StateError) as err:
        acc.add(np.zeros(4))
    assert "expected (3,)" in str(err.value)


def test_context_accumulator_rejects_bad_width():
    with pytest.raises(StateError):
        ContextAccumulator(0)


# ---------------------------------------------------------- assembly

def test_build_state_concatenates_three_parts():
    state = build_state(np.ones(4), np.zeros(4), np.full(4, 2.0))
    assert state.shape == (12,)
    np.testing.assert_array_equal(state[:4], np.ones(4))
    np.testing.assert_array_equal(state[4:8], np.zeros(4))
    np.testing.assert_array_equal(state[8:], np.full(4, 2.0))


def test_build_state_rejects_width_mismatch():
    with pytest.raises(StateError) as err:
        build_state(np.ones(4), np.ones(3), np.ones(4))
    assert "context vector has width 3, expected 4" in str(err.value)


def test_build_state_rejects_bad_shapes_and_values():
    with pytest.raises(StateError) as err:
        build_state(np.ones((2, 2)), np.ones(4), np.ones(4))
    assert "must be 1-dimensional" in str(err.value)
    with pytest.raises(StateError) as err:
        build_state(np.ones(4), np.ones(4), np.array([1.0, np.nan, 0.0, 0.0]))
    assert "non-finite" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", [0, 1, 2])
def test_build_state_names_the_non_finite_part(part, bad):
    vecs = [np.ones(4), np.zeros(4), np.full(4, 0.5)]
    vecs[part] = np.array([0.0, 1.0, bad, 0.0])
    with pytest.raises(StateError) as err:
        build_state(*vecs)
    name = ("claim", "context", "explanation")[part]
    assert str(err.value) == f"{name} vector contains non-finite values"


def test_pack_text_forms():
    assert pack_post_text("big flood", "S", "eyewitness") == "big flood Support eyewitness"
    assert pack_post_text("big flood", "Q", "") == "big flood Question"
    assert pack_claim_text("dam burst", "T", "confirmed") == "dam burst True Rumor confirmed"
    assert pack_claim_text("dam burst", "N", "") == "dam burst Non-Rumor"


# ----------------------------------------------------------- decisions

class ReferenceDecider:
    """A post decision on the concatenated state: `build_state` and
    `sample_action`, with the context added to on retain."""

    def __init__(self, params, embedder, claim_vec):
        self.params, self.embedder, self.claim_vec = params, embedder, claim_vec
        self.context = ContextAccumulator(len(claim_vec))

    def decide(self, rng, post_text, annotation):
        state = build_state(self.claim_vec, self.context.mean(),
                            self.embedder.embed(annotation.explanation))
        step = sample_action(self.params, state, rng, LEVEL_POST)
        if step.action == RETAIN:
            self.context.add(self.embedder.embed(
                pack_post_text(post_text, annotation.label, annotation.explanation)))
        return step


class ScriptedEmbedder(HashedEmbedder):
    """Counts its calls, raises EmbedError for the texts in `fail`, and with
    `fresh` returns a new array on every call, as ServiceEmbedder does, whose
    values drift with the call count, so that a product reused for a text
    whose array is new would show."""

    def __init__(self, d, fail=(), fresh=False):
        super().__init__(d)
        self.fail, self.fresh, self.calls = set(fail), fresh, 0

    def embed(self, text):
        self.calls += 1
        if text in self.fail:
            raise EmbedError(f"no embedding for {text!r}")
        vec = super().embed(text)
        return vec * (1.0 + 0.01 * self.calls) if self.fresh else vec


def _decide_all(decider, rng, posts):
    """Each post's Step, or the EmbedError it raised, and the context after it."""
    out = []
    for text, annotation in posts:
        try:
            result = decider.decide(rng, text, annotation)
        except EmbedError as exc:
            result = str(exc)
        out.append((result, decider.context.count, decider.context.mean().tobytes()))
    return out


EXPLANATIONS = ("", "eyewitness account", "refutes the claim", "asks for a source")


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 6), h=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       posts=st.lists(st.tuples(st.integers(0, 3), st.sampled_from("SDQC"),
                                st.booleans()), min_size=1, max_size=25),
       fresh=st.booleans(), scale=st.floats(0.1, 4.0))
def test_post_decider_matches_the_concatenated_state(d, h, seed, posts, fresh, scale):
    rng = np.random.default_rng(seed)
    params = PolicyParams(w1=rng.uniform(-scale, scale, (h, 3 * d)),
                          w2=rng.uniform(-scale, scale, h))
    claim_vec = rng.normal(size=d)
    thread = [(f"post {i} text {i % 3}", SimpleNamespace(label=label,
                                                         explanation=EXPLANATIONS[k]))
              for i, (k, label, _fails) in enumerate(posts)]
    # the packed text of a post marked to fail cannot be embedded
    fail = {pack_post_text(text, a.label, a.explanation)
            for (text, a), (_k, _label, fails) in zip(thread, posts) if fails}
    sides = []
    for make in (PostDecider, ReferenceDecider):
        embedder = ScriptedEmbedder(d, fail, fresh)
        action_rng = np.random.default_rng(seed + 1)
        sides.append((_decide_all(make(params, embedder, claim_vec), action_rng, thread),
                      action_rng.bit_generator.state, embedder.calls))
    (got, got_rng, got_calls), (want, want_rng, want_calls) = sides
    assert got_rng == want_rng and got_calls == want_calls
    for (step, count, mean), (ref, ref_count, ref_mean) in zip(got, want):
        assert (count, mean) == (ref_count, ref_mean)
        if isinstance(ref, str):  # an EmbedError after a retain left the context
            assert step == ref
            continue
        assert (step.action, step.level) == (ref.action, ref.level)
        assert step.state.tobytes() == ref.state.tobytes()
        assert abs(step.p_retain - ref.p_retain) <= 1e-12
        assert abs(step.logprob - ref.logprob) <= 1e-12


def test_post_decider_asks_the_embedder_for_every_post():
    params = init_params(12, 3, np.random.default_rng(0))
    embedder = ScriptedEmbedder(4)
    decider = PostDecider(params, embedder, np.ones(4))
    rng = np.random.default_rng(1)
    annotation = SimpleNamespace(label="S", explanation="same words")
    steps = [decider.decide(rng, f"post {i}", annotation) for i in range(10)]
    retains = sum(step.action == RETAIN for step in steps)
    assert embedder.calls == 10 + retains  # the memo saves products, not calls
    assert 0 < retains < 10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_post_decider_checks_each_part_as_it_enters(bad):
    params = PolicyParams(w1=np.ones((3, 12)), w2=np.full(3, 10.0))  # always retains
    with pytest.raises(StateError, match="^claim vector contains non-finite values$"):
        PostDecider(params, HashedEmbedder(4), np.array([0.0, bad, 0.0, 0.0]))
    with pytest.raises(StateError, match="^claim vector must be 1-dimensional$"):
        PostDecider(params, HashedEmbedder(4), np.ones((2, 2)))
    with pytest.raises(PolicyError, match=r"state has shape \(9,\), expected \(12,\)"):
        PostDecider(params, HashedEmbedder(3), np.ones(3))

    class Table:
        d = 4
        vectors = {"wide": np.ones(5), "bad": np.array([1.0, bad, 0.0, 0.0]),
                   pack_post_text("poison", "S", "ok"): np.array([bad, 0.0, 0.0, 0.0])}

        def embed(self, text):
            return self.vectors.get(text, np.full(4, 0.5))

    rng = np.random.default_rng(2)
    decider = PostDecider(params, Table(), np.ones(4))
    with pytest.raises(StateError, match="^explanation vector has width 5, expected 4$"):
        decider.decide(rng, "p", SimpleNamespace(label="S", explanation="wide"))
    with pytest.raises(StateError, match="^explanation vector contains non-finite"):
        decider.decide(rng, "p", SimpleNamespace(label="S", explanation="bad"))
    # a retained post whose context embedding is not finite: the next
    # decision finds it in the context mean
    ok = SimpleNamespace(label="S", explanation="ok")
    assert decider.decide(rng, "poison", ok).action == RETAIN
    with pytest.raises(StateError, match="^context vector contains non-finite"):
        decider.decide(rng, "p", ok)


def _paper_width_run(monkeypatch, decider):
    monkeypatch.setattr(engine, "PostDecider", decider)
    config = RunConfig(embed_dim=768, hidden_dim=128, max_epochs=2, learning_rate=1e-3)
    dataset = generate_synthetic(SynthConfig(n_claims=4, posts_per_claim=6, rng_seed=4))
    trainer = engine.Trainer(
        config, dataset, OracleAnnotator(rng=np.random.default_rng((0, 10))),
        OracleAnnotator(rng=np.random.default_rng((0, 11))),
        HashedEmbedder(config.embed_dim))
    events = []
    trainer.set_event_sink(events.append)
    trainer.train()
    decisions = [(e["claim_id"], e["level"], e["action"], e["reward"]) for e in events]
    return trainer.params, decisions


def test_training_at_paper_width_ends_with_the_reference_params(monkeypatch):
    params, decisions = _paper_width_run(monkeypatch, PostDecider)
    ref_params, ref_decisions = _paper_width_run(monkeypatch, ReferenceDecider)
    assert decisions == ref_decisions
    assert {step[2] for step in decisions} == {"retain", "discard"}
    assert params.w1.tobytes() == ref_params.w1.tobytes()
    assert params.w2.tobytes() == ref_params.w2.tobytes()
