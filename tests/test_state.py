"""Embedding providers, context accumulation, and selector-state assembly."""

from __future__ import annotations

import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimsift.errors import ConfigError, EmbedError, StateError, from_json
from claimsift.state import (
    EMBED_MEMO_SIZE,
    ContextAccumulator,
    EmbedConfig,
    HashedEmbedder,
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
