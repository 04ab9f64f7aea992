"""Hybrid rewards from the sign of centered cosine similarity.

Both reward paths compare two stance or veracity distributions and collapse
the comparison to -1, 0, or +1: claims with a trusted label compare the
predicted distribution against the label's one-hot; unlabeled claims compare
the mean stance of the selected posts against reference stance statistics
accumulated from labeled claims. Centering subtracts the uniform distribution
first so that "uniform" means "no information" rather than "weak agreement".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RewardError
from .labels import VERACITIES, one_hot

_EPS = 1e-12
_UNIFORM = 0.25


def _check_distribution(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (4,):
        raise RewardError(f"{name} must have 4 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise RewardError(f"{name} contains non-finite values")
    if arr.min() < -1e-9:
        raise RewardError(f"{name} has negative mass")
    if abs(float(arr.sum()) - 1.0) > 1e-6:
        raise RewardError(f"{name} does not sum to 1")
    return arr


def _centered(distribution: np.ndarray) -> tuple[np.ndarray, float]:
    """A distribution minus the uniform one, and that vector's norm."""
    centered = distribution - _UNIFORM
    return centered, float(np.linalg.norm(centered))


def _cosine(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """Cosine of two centered vectors given with their norms; 0.0 when
    either norm is (near-)zero."""
    if na < _EPS or nb < _EPS:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def centered_cosine(p, q) -> float:
    """Cosine similarity after subtracting the uniform distribution.

    Returns 0.0 when either centered vector has (near-)zero norm.
    """
    return _cosine(*_centered(_check_distribution(p, "p")),
                   *_centered(_check_distribution(q, "q")))


def _sign(cos: float) -> int:
    return 0 if abs(cos) < _EPS else (1 if cos > 0.0 else -1)


def sign_similarity(p, q) -> int:
    """Sign of the centered cosine: -1, 0, or +1, with a 1e-12 dead zone."""
    return _sign(centered_cosine(p, q))


@dataclass(frozen=True)
class RewardOutcome:
    """A unit reward plus diagnostics about how it was produced."""

    value: int
    cosine: float
    branch: str  # "labeled", "unlabeled", "cold", or "empty"


# each veracity label's centered one-hot target and its norm
_TARGETS = {v: _centered(one_hot(v, "veracity")) for v in VERACITIES}


def labeled_claim_reward(predicted_distribution, truth_label: str) -> RewardOutcome:
    """Reward for a claim with a trusted label: prediction vs one-hot truth."""
    if truth_label not in VERACITIES:
        raise RewardError(f"unknown veracity label {truth_label!r}")
    return checked_labeled_reward(_check_distribution(predicted_distribution, "p"),
                                  truth_label)


def checked_labeled_reward(predicted: np.ndarray, truth_label: str) -> RewardOutcome:
    """`labeled_claim_reward` of a prediction that is already a checked
    float64 distribution, as a parsed annotation's is, and a known label;
    neither is checked again."""
    cos = _cosine(*_centered(predicted), *_TARGETS[truth_label])
    return RewardOutcome(value=_sign(cos), cosine=cos, branch="labeled")


class ReferenceStanceStats:
    """Per-veracity running mean of stance distributions from labeled claims.

    A class with no observations yet is cold: rewards that would consult it
    come out 0 rather than guessing. An observed class's centered mean and
    that vector's norm are computed when first asked for after its last
    `update`, and kept until the next. Two statistics are equal when their
    sums (bit for bit) and counts are.
    """

    __slots__ = ("_sums", "_counts", "_centered")

    def __init__(self):
        self._sums = {v: np.zeros(4, dtype=np.float64) for v in VERACITIES}
        self._counts = {v: 0 for v in VERACITIES}
        self._centered: dict[str, tuple[np.ndarray, float]] = {}

    @classmethod
    def restore(cls, sums: Sequence[np.ndarray], counts: Sequence[int]
                ) -> "ReferenceStanceStats":
        """Statistics with the given per-class sums and counts, in
        VERACITIES order, as `update` would have left them."""
        stats = cls()
        stats._sums = dict(zip(VERACITIES, sums))
        stats._counts = dict(zip(VERACITIES, counts))
        return stats

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReferenceStanceStats):
            return NotImplemented
        return self._counts == other._counts and all(
            self._sums[v].tobytes() == other._sums[v].tobytes() for v in VERACITIES)

    def update(self, veracity: str, stance_distribution) -> None:
        if veracity not in VERACITIES:
            raise RewardError(f"unknown veracity label {veracity!r}")
        arr = _check_distribution(stance_distribution, "stance distribution")
        self._sums[veracity] += arr
        self._counts[veracity] += 1
        self._centered.pop(veracity, None)

    def count(self, veracity: str) -> int:
        return self._counts[veracity]

    def mean(self, veracity: str) -> np.ndarray | None:
        if veracity not in VERACITIES:
            raise RewardError(f"unknown veracity label {veracity!r}")
        n = self._counts[veracity]
        if n == 0:
            return None
        return self._sums[veracity] / n

    def centered_mean(self, veracity: str) -> tuple[np.ndarray, float] | None:
        """The class mean minus the uniform distribution, and its norm;
        None for a cold class."""
        centered = self._centered.get(veracity)
        if centered is None:
            mean = self.mean(veracity)  # raises for an unknown label
            if mean is None:
                return None
            centered = self._centered[veracity] = _centered(mean)
        return centered

    def snapshot(self) -> dict:
        return {v: self._counts[v] for v in VERACITIES}


class StanceMean:
    """Running mean of the stance distributions of a claim's retained posts.

    Each distribution is validated once, when it is added, so a prefix
    reward costs the same however many posts precede it. The sum starts at
    zero and adds the distributions in order, which is how NumPy reduces
    axis 0 of an (n, 4) block: `mean()` is bitwise equal to
    `np.stack(added).mean(axis=0)`. `len()` is the number of distributions.
    """

    __slots__ = ("_total", "_count")

    def __init__(self, distributions: Sequence[np.ndarray] = ()):
        self._total = np.zeros(4, dtype=np.float64)
        self._count = 0
        for distribution in distributions:
            self.add(distribution)

    def add(self, distribution) -> None:
        self._total += _check_distribution(distribution, "stance distribution")
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def mean(self) -> np.ndarray:
        if self._count == 0:
            raise RewardError("no stance distributions to average")
        return self._total / self._count


def unlabeled_claim_reward(
    selected_stance_distributions: StanceMean | Sequence[np.ndarray],
    predicted_veracity: str,
    references: ReferenceStanceStats,
) -> RewardOutcome:
    """Reward for an unlabeled claim.

    Compares the mean stance distribution of the selected posts, given as a
    StanceMean or as a sequence of distributions, against the reference
    mean for the predicted veracity class. No selected posts or a cold
    reference class produce a 0 reward with an explanatory branch tag.
    """
    selected = selected_stance_distributions
    if not isinstance(selected, StanceMean):
        selected = StanceMean(selected)
    if not selected:
        return RewardOutcome(value=0, cosine=0.0, branch="empty")
    reference = references.centered_mean(predicted_veracity)
    if reference is None:
        return RewardOutcome(value=0, cosine=0.0, branch="cold")
    cos = _cosine(*_centered(selected.mean()), *reference)
    return RewardOutcome(value=_sign(cos), cosine=cos, branch="unlabeled")
