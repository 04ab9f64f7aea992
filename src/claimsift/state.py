"""Embedding providers and selector state assembly.

The selector state for an instance is the concatenation of three equal-width
vectors: the claim embedding, the running mean of retained-context
embeddings, and the embedding of the annotator's explanation.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmbedError, PolicyError, StateError
from .labels import STANCE_NAMES, VERACITY_NAMES
from .policy import LEVEL_POST, RETAIN, PolicyParams, Step, draw
from .transport import post_json


@dataclass
class EmbedConfig:
    kind: str = "hashed"  # "hashed" or "service"
    endpoint: str | None = None
    timeout: float = 10.0

    def validate(self, prefix: str = "embed_backend") -> None:
        if self.kind not in ("hashed", "service"):
            raise ConfigError(f"{prefix}.kind: must be 'hashed' or 'service'")
        if self.kind == "service" and not self.endpoint:
            raise ConfigError(f"{prefix}.endpoint: required when kind is 'service'")
        if self.timeout <= 0:
            raise ConfigError(f"{prefix}.timeout: must be > 0")


# Texts whose vectors one HashedEmbedder keeps; at d=768 that is at most
# 6 MiB. The oracle backends' explanations repeat a handful of fixed
# strings, so most embed calls of their claim steps ask for a text embedded
# before.
EMBED_MEMO_SIZE = 1024


class HashedEmbedder:
    """Deterministic bag-of-words embedding into d crc32 hash buckets.

    Tokens are lowercase whitespace splits; bucket counts are L2-normalized.
    Empty text maps to the zero vector. crc32 rather than hash() so vectors
    are identical across processes and runs.

    The embedding is a pure function of the text, so the vectors of the
    last EMBED_MEMO_SIZE texts are kept and returned again. They are shared
    and therefore read-only: a caller that writes into one gets an error.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ConfigError("embed_dim: must be >= 1")
        self.d = d
        self._memo = functools.lru_cache(maxsize=EMBED_MEMO_SIZE)(self._vector)

    def embed(self, text: str) -> np.ndarray:
        return self._memo(text)

    def _vector(self, text: str) -> np.ndarray:
        vec = np.zeros(self.d, dtype=np.float64)
        for token in text.lower().split():
            vec[zlib.crc32(token.encode("utf-8")) % self.d] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        vec.flags.writeable = False
        return vec


class ServiceEmbedder:
    """HTTP embedding provider: POST {endpoint}/embed with {"text": ...}."""

    def __init__(self, endpoint: str, d: int, timeout: float = 10.0):
        if d < 1:
            raise ConfigError("embed_dim: must be >= 1")
        if not endpoint:
            raise ConfigError("embed_backend.endpoint: required")
        self.endpoint = endpoint
        self.d = d
        self.timeout = timeout

    def embed(self, text: str) -> np.ndarray:
        data = post_json(self.endpoint.rstrip("/") + "/embed", {"text": text},
                         self.timeout, EmbedError)
        try:
            arr = np.asarray(data.get("vector"), dtype=np.float64)
            if arr.shape == (self.d,) and np.isfinite(arr).all():
                return arr
        except (TypeError, ValueError):
            pass
        raise EmbedError(
            f"embedding service returned a malformed vector "
            f"(expected {self.d} finite values)"
        )


def build_embedder(config: EmbedConfig, d: int):
    config.validate()
    if config.kind == "service":
        return ServiceEmbedder(config.endpoint, d, timeout=config.timeout)
    return HashedEmbedder(d)


class ContextAccumulator:
    """Running mean of retained-instance embeddings; zero vector when empty."""

    def __init__(self, d: int):
        if d < 1:
            raise StateError("context width must be >= 1")
        self.d = d
        self._sum = np.zeros(d, dtype=np.float64)
        self.count = 0

    def add(self, vector: np.ndarray) -> None:
        arr = np.asarray(vector, dtype=np.float64)
        if arr.shape != (self.d,):
            raise StateError(
                f"context vector has width {arr.shape}, expected ({self.d},)"
            )
        self._sum += arr
        self.count += 1

    def mean(self) -> np.ndarray:
        if self.count == 0:
            return np.zeros(self.d, dtype=np.float64)
        return self._sum / self.count


# the three equal-width parts of a selector state, in order
STATE_PARTS = ("claim", "context", "explanation")


def _part(name: str, vec, width: int | None = None) -> np.ndarray:
    """One state part as float64, checked to be a vector of `width`."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise StateError(f"{name} vector must be 1-dimensional")
    if width is not None and arr.shape[0] != width:
        raise StateError(f"{name} vector has width {arr.shape[0]}, expected {width}")
    return arr


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise StateError(f"{name} vector contains non-finite values")
    return arr


def build_state(
    claim_vec: np.ndarray, context_vec: np.ndarray, explanation_vec: np.ndarray
) -> np.ndarray:
    """Concatenate the three state components, enforcing equal widths."""
    claim = _part("claim", claim_vec)
    parts = [claim, *(_part(name, vec, claim.shape[0]) for name, vec
                      in zip(STATE_PARTS[1:], (context_vec, explanation_vec)))]
    state = np.concatenate(parts)
    if not np.isfinite(state).all():  # one pass; name the part only on failure
        for name, arr in zip(STATE_PARTS, parts):
            _finite(name, arr)
    return state


class PostDecider:
    """The post decisions of one claim step, as training and evaluation
    make them, under parameters that do not change while it is used.

    A post's state is the claim vector, the running mean of `context` and
    the embedding of the stance annotation's explanation, concatenated as
    `build_state` does. Its logit sums each part times that part's columns
    of `w1`, so a part is multiplied only when it changes: the claim once,
    the context mean at the first decision after a retain, an explanation
    once per embedding. Only the grouping of float64 sums differs from
    multiplying the concatenated state, which is what a Step holds.

    The embedder is asked for every explanation, and a product is reused
    only when it returns the very array it returned for that text before,
    as HashedEmbedder's memo does. Each part is checked as it enters, with
    `build_state`'s errors. On retain, the embedding of the packed post text
    is added to `context`, which starts empty; an EmbedError leaves it as
    it was.
    """

    def __init__(self, params: PolicyParams, embedder, claim_vec: np.ndarray):
        claim = _finite("claim", _part("claim", claim_vec))
        d = claim.shape[0]
        if params.state_dim != len(STATE_PARTS) * d:
            raise PolicyError(f"state has shape ({len(STATE_PARTS) * d},), "
                              f"expected ({params.state_dim},)")
        self.context = ContextAccumulator(d)
        self._w2, self._embedder, self._claim = params.w2, embedder, claim
        self._w1 = [params.w1[:, k * d:(k + 1) * d] for k in range(len(STATE_PARTS))]
        self._claim_pre = self._w1[0] @ claim
        # the context mean, and its pre-activation plus the claim's; None
        # until the first decision after the mean changed
        self._mean = self._base = None
        # explanation text -> (its embedding as returned, as float64, product)
        self._explanations: dict[str, tuple] = {}

    def decide(self, rng: np.random.Generator, post_text: str, annotation) -> Step:
        """One post's retain/discard decision."""
        text = annotation.explanation
        embedding = self._embedder.embed(text)
        known = self._explanations.get(text)
        if known is None or known[0] is not embedding:
            vec = _finite("explanation", _part("explanation", embedding, self.context.d))
            known = self._explanations[text] = (embedding, vec, self._w1[2] @ vec)
        _embedding, explanation, product = known
        if self._base is None:
            self._mean = _finite("context", self.context.mean())
            self._base = self._claim_pre + self._w1[1] @ self._mean
        z = float(np.maximum(self._base + product, 0.0) @ self._w2)
        step = draw(z, np.concatenate((self._claim, self._mean, explanation)), rng,
                    LEVEL_POST)
        if step.action == RETAIN:
            self.context.add(self._embedder.embed(
                pack_post_text(post_text, annotation.label, text)))
            self._base = None
        return step


def pack_post_text(post_text: str, stance_label: str, explanation: str) -> str:
    """Text form of a stance-annotated post, used for context embeddings."""
    return f"{post_text} {STANCE_NAMES[stance_label]} {explanation}".strip()


def pack_claim_text(claim_text: str, veracity_label: str, explanation: str) -> str:
    """Text form of a veracity-annotated claim, used for context embeddings."""
    return f"{claim_text} {VERACITY_NAMES[veracity_label]} {explanation}".strip()
