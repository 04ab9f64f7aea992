"""Epsilon-greedy pre-selection over posts and claims, without replacement.

Both samplers take the greedy branch with probability epsilon and a uniform
branch otherwise. For posts the greedy pick is the chronologically next
unsampled post; for claims it is a uniform draw over the remaining human
labeled seeds, with the uniform branch drawing over the remaining pool of
unlabeled claims. When a branch's candidates are exhausted the draw falls
back to the other branch rather than wasting the step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, PoolExhausted

GREEDY = "greedy"
UNIFORM = "uniform"


def _check_epsilon(epsilon: float) -> float:
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon: must be in [0, 1], got {epsilon}")
    return float(epsilon)


class PostSampler:
    """Without-replacement sampler over a chronologically ordered thread.

    Indices 0..n-1 are assumed time-sorted. With probability epsilon the
    draw is the earliest unsampled index; otherwise it is uniform over all
    unsampled indices. `last_branch` records which branch the most recent
    draw took, for instrumentation.
    """

    def __init__(self, n_posts: int, epsilon: float, rng: np.random.Generator):
        if n_posts < 0:
            raise ConfigError("n_posts must be >= 0")
        self.epsilon = _check_epsilon(epsilon)
        self._rng = rng
        self._unsampled = list(range(n_posts))  # kept sorted
        self.last_branch: str | None = None

    @property
    def remaining(self) -> int:
        return len(self._unsampled)

    @property
    def next_index(self) -> int | None:
        """The chronological cursor: earliest unsampled index."""
        return self._unsampled[0] if self._unsampled else None

    def sample(self) -> int:
        if not self._unsampled:
            raise PoolExhausted("all posts of the thread have been sampled")
        if self._rng.random() < self.epsilon:
            self.last_branch = GREEDY
            return self._unsampled.pop(0)
        self.last_branch = UNIFORM
        pick = int(self._rng.integers(len(self._unsampled)))
        return self._unsampled.pop(pick)


class ClaimSampler:
    """Without-replacement sampler over seed and pool claim ids.

    With probability epsilon the draw is uniform over remaining seeds (the
    claims with trusted labels), otherwise uniform over the remaining pool.
    An empty branch falls back to the other; both empty raises PoolExhausted.
    """

    def __init__(
        self,
        seed_ids: Sequence[str],
        pool_ids: Sequence[str],
        epsilon: float,
        rng: np.random.Generator,
    ):
        overlap = set(seed_ids) & set(pool_ids)
        if overlap:
            raise ConfigError(f"claim ids in both seed and pool sets: {sorted(overlap)}")
        self.epsilon = _check_epsilon(epsilon)
        self._rng = rng
        self._seeds = sorted(seed_ids)
        self._pool = sorted(pool_ids)
        self.last_branch: str | None = None

    @property
    def remaining(self) -> int:
        return len(self._seeds) + len(self._pool)

    def _draw(self, bucket: list[str]) -> str:
        pick = int(self._rng.integers(len(bucket)))
        return bucket.pop(pick)

    def sample(self) -> str:
        if not self._seeds and not self._pool:
            raise PoolExhausted("all claims have been sampled")
        greedy = self._rng.random() < self.epsilon
        self.last_branch = GREEDY if greedy else UNIFORM
        if greedy:
            bucket = self._seeds if self._seeds else self._pool
        else:
            bucket = self._pool if self._pool else self._seeds
        return self._draw(bucket)


class TerminationTracker:
    """Halts a level after n consecutive unit rewards.

    observe() returns True once the run of reward == 1 observations reaches
    n; the tracker then latches and ignores further input.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ConfigError(f"termination threshold must be >= 1, got {n}")
        self.n = n
        self.current_run = 0
        self.fired = False

    def observe(self, reward: int) -> bool:
        if self.fired:
            return True
        if reward == 1:
            self.current_run += 1
        else:
            self.current_run = 0
        if self.current_run >= self.n:
            self.fired = True
        return self.fired
