"""Annotation backends and the operations built on top of them.

Two interchangeable backends produce stance and veracity annotations from
prompts: an HTTP client speaking a small JSON protocol, and a scripted oracle
that reads hidden markers out of synthetic corpus text. Both return a
BackendReply; the annotate_* functions turn replies into validated
annotations with full label distributions. A backend's `max_in_flight` is
how many of its requests may be in flight at once; `bounded_runners` is
the one place that rule is applied.
"""

from __future__ import annotations

import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .corpus import Claim, Post, modal_stance_map
from .errors import AnnotatorError, ConfigError, ParseError
from .labels import (
    STANCES,
    STANCE_INDEX,
    STANCE_NAMES,
    VERACITIES,
    VERACITY_INDEX,
    VERACITY_NAMES,
    canonical_argmax,
    normalize_stance,
    normalize_veracity,
)
from .prompts import (
    build_stance_prompt,
    build_veracity_prompt,
    parse_stance_response,
    parse_veracity_response,
)
from .transport import post_json

logger = logging.getLogger(__name__)

TASK_STANCE = "stance"
TASK_VERACITY = "veracity"

# Markers the oracle reads back out of synthetic text.
_SIG_RE = re.compile(r"\[sig:(s|d|q|c|none)\]", re.IGNORECASE)
_TRUTH_RE = re.compile(r"\[truth:(n|t|f|u)\]", re.IGNORECASE)
_STANCE_LINE_RE = re.compile(r"\(Stance: (Support|Deny|Question|Comment)\)")


@dataclass
class Annotation:
    """A validated label with its distribution over the task's labels."""

    label: str
    distribution: np.ndarray
    explanation: str
    raw: str


StanceAnnotation = VeracityAnnotation = Annotation


@dataclass(frozen=True)
class FineTuneExample:
    task: str
    prompt: str
    target: str
    label_origin: str  # "human" or "machine"


@dataclass
class BackendConfig:
    kind: str = "oracle"  # "oracle" or "http"
    endpoint: str | None = None
    oracle_accuracy: float = 0.9
    smoothing_alpha: float = 0.1
    timeout: float = 10.0
    max_in_flight: int = 4

    def validate(self, prefix: str = "backend") -> None:
        if self.kind not in ("oracle", "http"):
            raise ConfigError(f"{prefix}.kind: must be 'oracle' or 'http'")
        if self.kind == "http" and not self.endpoint:
            raise ConfigError(f"{prefix}.endpoint: required when kind is 'http'")
        if not 0.0 < self.oracle_accuracy <= 1.0:
            raise ConfigError(f"{prefix}.oracle_accuracy: must be in (0, 1]")
        if not 0.0 <= self.smoothing_alpha < 1.0:
            raise ConfigError(f"{prefix}.smoothing_alpha: must be in [0, 1)")
        if self.timeout <= 0:
            raise ConfigError(f"{prefix}.timeout: must be > 0")
        if self.max_in_flight < 1:
            raise ConfigError(f"{prefix}.max_in_flight: must be >= 1")


@dataclass
class BackendReply:
    """A backend's answer. The fields hold what the backend sent, of any
    type; the parser rejects a label or explanation that is not a string
    and a distribution that is not four numbers."""

    raw: str
    label: str | None = None
    explanation: str | None = None
    distribution: np.ndarray | Sequence[float] | None = None


def smoothed_one_hot(index: int, alpha: float) -> np.ndarray:
    """One-hot mixed with alpha of the uniform distribution."""
    if not 0.0 <= alpha < 1.0:
        raise ConfigError("smoothing_alpha: must be in [0, 1)")
    vec = np.full(4, alpha / 4.0, dtype=np.float64)
    vec[index] += 1.0 - alpha
    return vec


def format_stance_target(label: str, explanation: str) -> str:
    return f"Stance: {STANCE_NAMES[label]}, Reason:{explanation}"


def format_veracity_target(label: str, explanation: str) -> str:
    return f"Veracity: {VERACITY_NAMES[label]}, Reason: {explanation}"


class OracleAnnotator:
    """Scripted backend that recovers ground truth from text markers.

    Stance prompts are answered from the post's [sig:x] marker: the true
    stance with probability `accuracy`, otherwise a uniformly random wrong
    label. Posts marked [sig:none] (or unmarked text) get a uniformly random
    label and a no-signal explanation.

    Veracity prompts are answered from the claim's [truth:v] marker. The
    probability of emitting the true label is

        P = min(0.25 + 0.75 * matched_fraction, accuracy)

    where matched_fraction is the share of listed posts whose stance equals
    the dominant stance for the true veracity. No marker or no listed posts
    falls back to an exact uniform distribution whose label is the canonical
    argmax. Every reply carries its distribution. One request at a time:
    draws consume a shared generator.
    """

    max_in_flight = 1

    def __init__(
        self,
        accuracy: float = 0.9,
        rng: np.random.Generator | int = 0,
        modal_stance: dict[str, str] | None = None,
    ):
        if not 0.0 < accuracy <= 1.0:
            raise ConfigError("oracle accuracy must be in (0, 1]")
        self.accuracy = accuracy
        self.modal_stance = dict(modal_stance or modal_stance_map())
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self._rng = rng

    def _emit(self, truth_index: int, p_correct: float, size: int = 4) -> int:
        if self._rng.random() < p_correct:
            return truth_index
        others = [i for i in range(size) if i != truth_index]
        return int(others[self._rng.integers(len(others))])

    def _confidence(self, p: float) -> float:
        # Keep argmax(distribution) == emitted label even at low accuracy.
        return max(p, 0.2500001)

    def _mass(self, index: int, p: float) -> np.ndarray:
        m = self._confidence(p)
        vec = np.full(4, (1.0 - m) / 3.0, dtype=np.float64)
        vec[index] = m
        return vec

    def _complete_stance(self, prompt: str) -> BackendReply:
        m = _SIG_RE.search(prompt)
        marker = m.group(1).lower() if m else "none"
        if marker == "none":
            index = int(self._rng.integers(4))
            label = STANCES[index]
            explanation = "The post text shows no clear stance toward the claim."
        else:
            truth = marker.upper()
            index = self._emit(STANCE_INDEX[truth], self.accuracy)
            label = STANCES[index]
            explanation = (
                f"The post text signals a {STANCE_NAMES[label].lower()} stance "
                "toward the claim."
            )
        distribution = self._mass(index, self.accuracy)
        return BackendReply(
            raw=format_stance_target(label, explanation),
            label=STANCE_NAMES[label],
            explanation=explanation,
            distribution=distribution,
        )

    def _complete_veracity(self, prompt: str) -> BackendReply:
        truth_match = _TRUTH_RE.search(prompt)
        stance_names = _STANCE_LINE_RE.findall(prompt)
        if truth_match is None or not stance_names:
            distribution = np.full(4, 0.25, dtype=np.float64)
            label = canonical_argmax(distribution, "veracity")
            explanation = "No responding posts are available to assess the claim."
        else:
            truth = truth_match.group(1).upper()
            modal = self.modal_stance[truth]
            stances = [normalize_stance(name) for name in stance_names]
            matched = sum(1 for s in stances if s == modal)
            p_correct = min(0.25 + 0.75 * matched / len(stances), self.accuracy)
            index = self._emit(VERACITY_INDEX[truth], p_correct)
            label = VERACITIES[index]
            explanation = (
                "The responding stances are most consistent with "
                f"{VERACITY_NAMES[label].lower()}."
            )
            distribution = self._mass(index, p_correct)
        return BackendReply(
            raw=format_veracity_target(label, explanation),
            label=VERACITY_NAMES[label],
            explanation=explanation,
            distribution=distribution,
        )

    def complete(self, task: str, prompt: str) -> BackendReply:
        if task == TASK_STANCE:
            return self._complete_stance(prompt)
        if task == TASK_VERACITY:
            return self._complete_veracity(prompt)
        raise AnnotatorError(f"unknown task {task!r}")

    def finetune(self, task: str, examples: list[dict], origin: str = "selected") -> str:
        logger.info(
            "oracle backend skipping fine-tune request (%s, %d examples, origin=%s)",
            task, len(examples), origin,
        )
        return "skipped"

    def get_state(self) -> dict:
        return {"rng_state": self._rng.bit_generator.state}

    def set_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng_state"]


class HttpAnnotator:
    """JSON-over-HTTP annotation backend.

    POST {endpoint}/annotate with {"task", "prompt"} and expects
    {"label", "explanation"?, "distribution"?}; the reply's fields are
    passed on as received and checked by the parser. Requests go through
    claimsift.transport.post_json (three attempts; a 3xx or 4xx fails at once).
    POST {endpoint}/finetune with {"task", "examples"} (and
    an "origin" tag for warm-up corpora) returns a job token. Safe for
    concurrent use, up to the config's `max_in_flight` requests at a time.
    """

    def __init__(self, config: BackendConfig):
        config.validate()
        if config.kind != "http":
            raise ConfigError("HttpAnnotator requires kind='http'")
        self.config = config
        self.smoothing_alpha = config.smoothing_alpha
        self.max_in_flight = config.max_in_flight

    def _post(self, route: str, body: dict) -> dict:
        return post_json(self.config.endpoint.rstrip("/") + route, body,
                         self.config.timeout, AnnotatorError)

    def complete(self, task: str, prompt: str) -> BackendReply:
        data = self._post("/annotate", {"task": task, "prompt": prompt})
        return BackendReply(
            raw=json.dumps(data),
            label=data.get("label"),
            explanation=data.get("explanation"),
            distribution=data.get("distribution"),
        )

    def finetune(self, task: str, examples: list[dict], origin: str = "selected") -> str:
        body: dict = {"task": task, "examples": examples}
        if origin != "selected":
            body["origin"] = origin
        data = self._post("/finetune", body)
        return str(data.get("job", "accepted"))


def make_backend(config: BackendConfig, rng: np.random.Generator | int = 0):
    """Build a backend instance from its config."""
    config.validate()
    if config.kind == "http":
        return HttpAnnotator(config)
    return OracleAnnotator(accuracy=config.oracle_accuracy, rng=rng)


def _validated_distribution(distribution, label_index: int, raw: str) -> np.ndarray:
    """The reply's distribution, its negative entries (none below -1e-9)
    clipped to 0. The sum is checked on the clipped vector, the one the
    rewards check again."""
    try:
        arr = np.asarray(distribution, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParseError("distribution must be 4 finite values", raw=raw) from None
    if arr.shape != (4,) or not np.isfinite(arr).all():
        raise ParseError("distribution must be 4 finite values", raw=raw)
    if arr.min() < -1e-9:
        raise ParseError("distribution must lie on the probability simplex", raw=raw)
    arr = np.maximum(arr, 0.0)  # np.clip(arr, 0.0, None), without its dispatch
    if abs(float(arr.sum()) - 1.0) > 1e-6:
        raise ParseError("distribution must lie on the probability simplex", raw=raw)
    if arr.argmax() != label_index:
        raise ParseError("distribution argmax disagrees with the label", raw=raw)
    return arr


# Per task: the label normalizer, the free-text parser and the label order.
_TASKS = {
    TASK_STANCE: (normalize_stance, parse_stance_response, STANCE_INDEX),
    TASK_VERACITY: (normalize_veracity, parse_veracity_response, VERACITY_INDEX),
}


def _from_reply(task: str, reply: BackendReply, alpha: float) -> Annotation:
    """The task's annotation of a backend reply; ParseError when it has none.

    A structured label wins over the raw text, a given explanation over the
    parsed one, and a missing distribution becomes a smoothed one-hot.
    """
    normalize, parse, index = _TASKS[task]
    for name, value in (("label", reply.label), ("explanation", reply.explanation)):
        if value is not None and not isinstance(value, str):
            raise ParseError(f"{task} {name} must be a string, got {value!r}",
                             raw=reply.raw)
    if reply.label is not None:
        label = normalize(reply.label)
        if label is None:
            raise ParseError(f"unknown {task} label {reply.label!r}", raw=reply.raw)
        explanation = ""
    else:
        label, explanation = parse(reply.raw)
    if reply.explanation is not None:
        explanation = reply.explanation
    if reply.distribution is not None:
        distribution = _validated_distribution(reply.distribution, index[label], reply.raw)
    else:
        distribution = smoothed_one_hot(index[label], alpha)
    return Annotation(label, distribution, explanation, reply.raw)


def _annotate(backend, task: str, prompt: str) -> Annotation:
    """Ask the backend to annotate a prompt; an unparseable reply is asked
    for once more before its ParseError is raised."""
    alpha = getattr(backend, "smoothing_alpha", 0.1)
    for attempt in range(2):
        reply = backend.complete(task, prompt)
        try:
            return _from_reply(task, reply, alpha)
        except ParseError:
            if attempt:
                raise


def annotate_post(backend, claim: Claim, post: Post) -> StanceAnnotation:
    """Stance-annotate one post. Retries an unparseable reply once."""
    return _annotate(backend, TASK_STANCE, build_stance_prompt(claim, post))


def annotate_claim(
    backend, claim: Claim, retained: Sequence[tuple[Post, StanceAnnotation]]
) -> VeracityAnnotation:
    """Veracity-annotate a claim given its retained, stance-labeled posts."""
    prompt = build_veracity_prompt(claim, [(p, a.label) for p, a in retained])
    return _annotate(backend, TASK_VERACITY, prompt)


class Deferred:
    """A call made on the caller thread when its result is asked for: a
    stand-in for a pooled call, for calls that are to run in the order
    their results are read."""

    __slots__ = ("_fn", "_args")

    def __init__(self, fn, *args):
        self._fn = fn
        self._args = args

    def result(self):
        return self._fn(*self._args)


class Done:
    """A call made at once on the caller thread: a stand-in for a pooled
    call, for a call that is to run where it is queued."""

    __slots__ = ("_value",)

    def __init__(self, fn, *args):
        self._value = fn(*args)

    def result(self):
        return self._value


@contextmanager
def bounded_runners(sd_backend, rv_backend, sd_stand_in, rv_stand_in):
    """`(sd_run, rv_run)` for calls to the two backends, each within its
    own `max_in_flight` (1 when a backend has none).

    `run(fn, *args)` queues the call `fn(*args)` and returns an object whose
    `result()` is the call's. The calls of the backends above 1 go to one
    pool, sized to the smaller of their bounds, so neither backend has more
    requests in flight than its bound, even when `sd_backend` is
    `rv_backend`. A backend at 1 is called on the caller thread through its
    stand-in, `Deferred` or `Done`; with both at 1 no pool and no thread is
    made. On exit, calls not yet started are cancelled and running ones are
    waited for, so no thread outlives the block.
    """
    sd_bound, rv_bound = (getattr(backend, "max_in_flight", 1)
                          for backend in (sd_backend, rv_backend))
    pooled = [bound for bound in (sd_bound, rv_bound) if bound > 1]
    pool = ThreadPoolExecutor(max_workers=min(pooled)) if pooled else None
    try:
        yield (pool.submit if sd_bound > 1 else sd_stand_in,
               pool.submit if rv_bound > 1 else rv_stand_in)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def fine_tune(backend, examples: Sequence[FineTuneExample]) -> str | None:
    """Send one task's fine-tune examples to a backend.

    An empty list is a no-op. Backend failures are logged and swallowed so a
    training run survives a flaky fine-tune endpoint.
    """
    if not examples:
        return None
    tasks = {e.task for e in examples}
    if len(tasks) > 1:
        raise ConfigError(f"fine-tune batch mixes tasks: {sorted(tasks)}")
    task = examples[0].task
    payload = [{"prompt": e.prompt, "target": e.target} for e in examples]
    try:
        return backend.finetune(task, payload)
    except AnnotatorError as exc:
        logger.warning("fine-tune request failed, continuing: %s", exc)
        return None


def export_finetune_set(examples: Sequence[FineTuneExample], fh: TextIO) -> int:
    """Write fine-tune examples as JSONL lines to the open text file `fh`;
    returns the record count."""
    for example in examples:
        fh.write(
            json.dumps(
                {
                    "prompt": example.prompt,
                    "target": example.target,
                    "label_origin": example.label_origin,
                },
                ensure_ascii=False,
            )
            + "\n"
        )
    return len(examples)
