"""Confusion-matrix metrics and the end-to-end evaluation loop.

Per-class F1 is 2tp / (2tp + fp + fn); classes absent from both gold and
predictions are excluded (None) rather than scored as 0. Micro-F1 equals
accuracy in this single-label setting; macro-F1 averages the present
classes. Unparseable model outputs are counted as abstentions per task, not
silently dropped.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .annotators import (
    Annotation,
    Deferred,
    Done,
    annotate_claim,
    annotate_post,
    bounded_runners,
)
from .corpus import Claim, Dataset
from .errors import AnnotatorError, EmbedError, EmptyEvaluation, ParseError
from .labels import STANCES, VERACITIES
from .policy import PolicyParams, RETAIN
from .state import PostDecider


class ConfusionMatrix:
    """Square count matrix, rows gold, columns predicted."""

    def __init__(self, labels: Sequence[str]):
        self.labels = tuple(labels)
        self.counts = np.zeros((len(self.labels), len(self.labels)), dtype=np.int64)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[str, str]], labels: Sequence[str]
    ) -> "ConfusionMatrix":
        cm = cls(labels)
        for gold, pred in pairs:
            cm.add(gold, pred)
        return cm

    def add(self, gold: str, pred: str) -> None:
        self.counts[self._index[gold], self._index[pred]] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def per_class_f1(cm: ConfusionMatrix) -> dict[str, float | None]:
    """F1 per label; None marks classes absent from gold and predictions."""
    out: dict[str, float | None] = {}
    for i, label in enumerate(cm.labels):
        tp = int(cm.counts[i, i])
        fp = int(cm.counts[:, i].sum()) - tp
        fn = int(cm.counts[i, :].sum()) - tp
        denominator = 2 * tp + fp + fn
        out[label] = None if denominator == 0 else 2.0 * tp / denominator
    return out


def micro_f1(cm: ConfusionMatrix) -> float:
    """Micro-averaged F1; equals accuracy for single-label classification."""
    if cm.total == 0:
        raise EmptyEvaluation("no scored instances")
    tp = int(np.trace(cm.counts))
    fp = cm.total - tp
    fn = cm.total - tp
    return 2.0 * tp / (2 * tp + fp + fn)


def macro_f1(cm: ConfusionMatrix) -> float:
    """Mean F1 over classes present in gold or predictions."""
    scores = [s for s in per_class_f1(cm).values() if s is not None]
    if not scores:
        raise EmptyEvaluation("no scored instances")
    return float(np.mean(scores))


@dataclass
class TaskMetrics:
    task: str
    n_instances: int
    n_scored: int
    abstentions: int
    micro_f1: float
    macro_f1: float
    per_class: dict
    confusion: list

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalReport:
    stance: TaskMetrics | None
    veracity: TaskMetrics | None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _task_metrics(
    task: str, results: list[tuple[str, Annotation | None]], labels: Sequence[str],
) -> TaskMetrics | None:
    """Scores of (gold label, annotation) results; None marks an abstention."""
    if not results:
        return None
    pairs = [(gold, ann.label) for gold, ann in results if ann is not None]
    if not pairs:
        raise EmptyEvaluation(
            f"all {task} instances abstained; nothing to score"
        )
    cm = ConfusionMatrix.from_pairs(pairs, labels)
    return TaskMetrics(
        task=task,
        n_instances=len(results),
        n_scored=len(pairs),
        abstentions=len(results) - len(pairs),
        micro_f1=micro_f1(cm),
        macro_f1=macro_f1(cm),
        per_class=per_class_f1(cm),
        confusion=cm.counts.tolist(),
    )


def _stance(sd_backend, claim: Claim, post) -> Annotation | None:
    """A post's stance annotation; None when the backend fails or its reply
    stays unparseable."""
    try:
        return annotate_post(sd_backend, claim, post)
    except (ParseError, AnnotatorError):
        return None


def _verdict(rv_backend, claim: Claim, retained: list | None) -> Annotation | None:
    """A claim's veracity annotation; None when the backend fails, its reply
    stays unparseable, or there is no retained list to send."""
    if retained is None:
        return None
    try:
        return annotate_claim(rv_backend, claim, retained)
    except (ParseError, AnnotatorError):
        return None


def _retained_by_policy(params: PolicyParams, rng: np.random.Generator, embedder,
                        claim: Claim, annotated: list) -> list:
    """The annotated posts the policy retains, decided in thread order. A
    post whose embedding fails is skipped, as in training; a failed claim
    embedding raises EmbedError."""
    decider = PostDecider(params, embedder, embedder.embed(claim.text))
    retained = []
    for post, annotation in annotated:
        try:
            step = decider.decide(rng, post.text, annotation)
        except EmbedError:
            continue
        if step.action == RETAIN:
            retained.append((post, annotation))
    return retained


def _pipeline(claims, sd_backend, rv_backend, sd_run, rv_run, decide) -> list:
    """`evaluate`'s walk with one claim of look-ahead; the (gold, verdict)
    pairs in claim order. `sd_run`/`rv_run` submit a call to the pool or
    stand in for it on the caller thread; either way they return an object
    whose `result()` is the call's. Each verdict is collected once the next
    claim's veracity call is queued, so an unexpected error surfaces a
    claim later at most."""
    def queue_stances(claim: Claim) -> list:
        return [sd_run(_stance, sd_backend, claim, post) for post in claim.posts]

    queued = queue_stances(claims[0])
    held = None  # the previous labeled claim's (gold, veracity future)
    verdicts = []
    for i, claim in enumerate(claims):
        futures = queued
        queued = queue_stances(claims[i + 1]) if i + 1 < len(claims) else []
        retained = decide(claim, [future.result() for future in futures])
        if claim.veracity is not None:
            future = rv_run(_verdict, rv_backend, claim, retained)
            if held is not None:
                verdicts.append((held[0], held[1].result()))
            held = (claim.veracity, future)
    if held is not None:
        verdicts.append((held[0], held[1].result()))
    return verdicts


def evaluate(
    dataset: Dataset,
    sd_backend,
    rv_backend,
    embedder=None,
    params: PolicyParams | None = None,
    rng_seed: int = 12345,
) -> EvalReport:
    """Score both tasks on a labeled corpus.

    Stance is scored over every post carrying a gold stance. Veracity is
    scored per claim; when a policy is given (with its embedder), posts are
    filtered through retain/discard decisions and the veracity backend sees
    only the retained ones. Each decision is training's own step,
    `claimsift.state.PostDecider`. What differs from training is the walk:
    every annotated post of the thread is decided in chronological order
    (no epsilon-greedy post order), with no `max_posts` cap and no
    post-level termination. A failed embedding is handled as in training:
    a post whose embedding fails is skipped, and a claim whose embedding
    fails abstains on veracity.

    Each backend's `max_in_flight` attribute (1 when it has none) bounds
    its own requests in flight (`annotators.bounded_runners`). The calls
    of the backends above 1 go to one pool, sized to the smaller of their
    bounds: the next claim's stance calls are queued before this claim's
    are awaited, and a claim's veracity call is queued behind them, so it
    overlaps the next claim's stance calls. A backend at 1 is called on
    the caller thread, one call at a time, where the sequential walk
    makes it. Decisions are made on the caller thread in claim order with
    the one rng, so the report equals that of the sequential walk.
    """
    if len(dataset) == 0:
        raise EmptyEvaluation("dataset has no claims")
    if params is not None and embedder is None:
        raise EmptyEvaluation("policy evaluation requires an embedder")
    rng = np.random.default_rng(rng_seed)
    stances: list[tuple[str, Annotation | None]] = []

    def decide(claim: Claim, annotations: list) -> list | None:
        """Score the claim's stances; the posts its veracity call sees, or
        None when the claim has no embedding."""
        annotated = []
        for post, ann in zip(claim.posts, annotations):
            if post.stance is not None:
                stances.append((post.stance, ann))
            if ann is not None:
                annotated.append((post, ann))
        if params is None:
            return annotated
        try:
            return _retained_by_policy(params, rng, embedder, claim, annotated)
        except EmbedError:
            return None

    # a stance call at 1 runs when its claim is decided, a veracity call at
    # 1 where it is queued: the order of the sequential walk
    with bounded_runners(sd_backend, rv_backend, Deferred, Done) as (sd_run, rv_run):
        verdicts = _pipeline(dataset.claims, sd_backend, rv_backend, sd_run, rv_run,
                             decide)

    if not stances and not verdicts:
        raise EmptyEvaluation("dataset has no gold labels for either task")
    return EvalReport(
        stance=_task_metrics("stance", stances, STANCES),
        veracity=_task_metrics("veracity", verdicts, VERACITIES),
    )
