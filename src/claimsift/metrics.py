"""Confusion-matrix metrics and the end-to-end evaluation loop.

Per-class F1 is 2tp / (2tp + fp + fn); classes absent from both gold and
predictions are excluded (None) rather than scored as 0. Micro-F1 equals
accuracy in this single-label setting; macro-F1 averages the present
classes. Unparseable model outputs are counted as abstentions per task, not
silently dropped.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .annotators import annotate_claim, annotate_post
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
    task: str, pairs: list[tuple[str, str]], labels: Sequence[str],
    n_instances: int, abstentions: int,
) -> TaskMetrics | None:
    if n_instances == 0:
        return None
    if not pairs:
        raise EmptyEvaluation(
            f"all {task} instances abstained; nothing to score"
        )
    cm = ConfusionMatrix.from_pairs(pairs, labels)
    return TaskMetrics(
        task=task,
        n_instances=n_instances,
        n_scored=len(pairs),
        abstentions=abstentions,
        micro_f1=micro_f1(cm),
        macro_f1=macro_f1(cm),
        per_class=per_class_f1(cm),
        confusion=cm.counts.tolist(),
    )


def _annotate_thread(sd_backend, claim: Claim, max_in_flight: int) -> list:
    """Stance-annotate every post of a thread; None marks failures."""

    def one(post):
        try:
            return annotate_post(sd_backend, claim, post)
        except (ParseError, AnnotatorError):
            return None

    if getattr(sd_backend, "concurrency_safe", False) and max_in_flight > 1:
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            return list(pool.map(one, claim.posts))
    return [one(post) for post in claim.posts]


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


def evaluate(
    dataset: Dataset,
    sd_backend,
    rv_backend,
    embedder=None,
    params: PolicyParams | None = None,
    rng_seed: int = 12345,
    max_in_flight: int | None = None,
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
    """
    if len(dataset) == 0:
        raise EmptyEvaluation("dataset has no claims")
    if params is not None and embedder is None:
        raise EmptyEvaluation("policy evaluation requires an embedder")
    in_flight = max_in_flight or getattr(
        getattr(sd_backend, "config", None), "max_in_flight", 1
    )
    rng = np.random.default_rng(rng_seed)

    stance_pairs: list[tuple[str, str]] = []
    stance_instances = 0
    stance_abstentions = 0
    veracity_pairs: list[tuple[str, str]] = []
    veracity_instances = 0
    veracity_abstentions = 0

    for claim in dataset.claims:
        annotations = _annotate_thread(sd_backend, claim, in_flight)
        for post, annotation in zip(claim.posts, annotations):
            if post.stance is not None:
                stance_instances += 1
                if annotation is None:
                    stance_abstentions += 1
                else:
                    stance_pairs.append((post.stance, annotation.label))

        annotated = [
            (post, ann) for post, ann in zip(claim.posts, annotations)
            if ann is not None
        ]
        try:
            retained = annotated if params is None else _retained_by_policy(
                params, rng, embedder, claim, annotated)
        except EmbedError:
            retained = None  # without a claim embedding there is no verdict
        if claim.veracity is not None:
            veracity_instances += 1
            try:
                verdict = None if retained is None else annotate_claim(
                    rv_backend, claim, retained)
            except (ParseError, AnnotatorError):
                verdict = None
            if verdict is None:
                veracity_abstentions += 1
            else:
                veracity_pairs.append((claim.veracity, verdict.label))

    if stance_instances == 0 and veracity_instances == 0:
        raise EmptyEvaluation("dataset has no gold labels for either task")
    return EvalReport(
        stance=_task_metrics(
            "stance", stance_pairs, STANCES, stance_instances, stance_abstentions
        ),
        veracity=_task_metrics(
            "veracity", veracity_pairs, VERACITIES,
            veracity_instances, veracity_abstentions,
        ),
    )
