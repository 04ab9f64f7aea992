"""Epsilon-greedy pre-selection and run-of-rewards termination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from claimsift.errors import ConfigError, PoolExhausted
from claimsift.selection import (
    GREEDY,
    UNIFORM,
    ClaimSampler,
    PostSampler,
    TerminationTracker,
)


# ------------------------------------------------------------- posts

def test_post_sampler_epsilon_one_is_chronological():
    sampler = PostSampler(6, epsilon=1.0, rng=np.random.default_rng(0))
    assert [sampler.sample() for _ in range(6)] == [0, 1, 2, 3, 4, 5]
    assert sampler.last_branch == GREEDY


def test_post_sampler_epsilon_zero_is_uniform_permutation():
    sampler = PostSampler(8, epsilon=0.0, rng=np.random.default_rng(1))
    drawn = [sampler.sample() for _ in range(8)]
    assert sorted(drawn) == list(range(8))
    assert sampler.last_branch == UNIFORM


@given(n_posts=st.integers(0, 40), epsilon=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_post_sampler_draws_a_permutation(n_posts, epsilon, seed):
    sampler = PostSampler(n_posts, epsilon, np.random.default_rng(seed))
    drawn = [sampler.sample() for _ in range(n_posts)]
    assert sorted(drawn) == list(range(n_posts))
    assert sampler.remaining == 0


def test_post_sampler_exhaustion():
    sampler = PostSampler(3, epsilon=0.5, rng=np.random.default_rng(2))
    drawn = [sampler.sample() for _ in range(3)]
    assert sorted(drawn) == [0, 1, 2]
    assert sampler.remaining == 0
    assert sampler.next_index is None
    with pytest.raises(PoolExhausted):
        sampler.sample()


def test_post_sampler_greedy_tracks_cursor():
    # after a uniform draw removes a later post, greedy still takes the
    # earliest unsampled index
    rng = np.random.default_rng(3)
    sampler = PostSampler(5, epsilon=0.0, rng=rng)
    first = sampler.sample()
    sampler.epsilon = 1.0
    expected = next(i for i in range(5) if i != first)
    assert sampler.next_index == expected
    assert sampler.sample() == expected


def test_post_sampler_branch_frequency():
    rng = np.random.default_rng(4)
    greedy = 0
    n = 10000
    for _ in range(n):
        sampler = PostSampler(10, epsilon=0.3, rng=rng)
        sampler.sample()
        greedy += sampler.last_branch == GREEDY
    assert abs(greedy / n - 0.3) < 0.02


def test_post_sampler_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        PostSampler(-1, 0.5, rng)
    with pytest.raises(ConfigError) as err:
        PostSampler(3, 1.5, rng)
    assert "epsilon: must be in [0, 1]" in str(err.value)


# ------------------------------------------------------------ claims

def test_claim_sampler_epsilon_one_drains_seeds_first():
    rng = np.random.default_rng(5)
    sampler = ClaimSampler(["s1", "s2"], ["p1", "p2", "p3"], 1.0, rng)
    first_two = {sampler.sample(), sampler.sample()}
    assert first_two == {"s1", "s2"}
    # seeds empty: greedy branch falls back to the pool
    rest = {sampler.sample() for _ in range(3)}
    assert rest == {"p1", "p2", "p3"}
    assert sampler.remaining == 0
    with pytest.raises(PoolExhausted):
        sampler.sample()


def test_claim_sampler_epsilon_zero_drains_pool_first():
    rng = np.random.default_rng(6)
    sampler = ClaimSampler(["s1"], ["p1", "p2"], 0.0, rng)
    assert {sampler.sample(), sampler.sample()} == {"p1", "p2"}
    assert sampler.sample() == "s1"


def test_claim_sampler_without_replacement_covers_everything():
    rng = np.random.default_rng(7)
    seeds = [f"s{i}" for i in range(4)]
    pool = [f"p{i}" for i in range(8)]
    sampler = ClaimSampler(seeds, pool, 0.4, rng)
    drawn = [sampler.sample() for _ in range(12)]
    assert sorted(drawn) == sorted(seeds + pool)
    assert len(set(drawn)) == 12


def test_claim_sampler_branch_frequency():
    rng = np.random.default_rng(8)
    greedy = 0
    n = 10000
    for _ in range(n):
        sampler = ClaimSampler(["s1"], ["p1"], 0.7, rng)
        sampler.sample()
        greedy += sampler.last_branch == GREEDY
    assert abs(greedy / n - 0.7) < 0.02


@given(ids=st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=30),
       n_seeds=st.integers(0, 30), epsilon=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_claim_sampler_draws_a_permutation(ids, n_seeds, epsilon, seed):
    seeds, pool = ids[:n_seeds], ids[n_seeds:]
    sampler = ClaimSampler(seeds, pool, epsilon, np.random.default_rng(seed))
    drawn = [sampler.sample() for _ in range(len(ids))]
    assert sorted(drawn) == sorted(ids)
    with pytest.raises(PoolExhausted):
        sampler.sample()


def test_claim_sampler_rejects_overlap():
    rng = np.random.default_rng(9)
    with pytest.raises(ConfigError) as err:
        ClaimSampler(["a", "b"], ["b", "c"], 0.5, rng)
    assert "both seed and pool sets" in str(err.value)
    assert "'b'" in str(err.value)


# -------------------------------------------------------- termination

def test_termination_fires_after_n_consecutive_units():
    tracker = TerminationTracker(3)
    assert tracker.observe(1) is False
    assert tracker.observe(1) is False
    assert tracker.observe(1) is True
    assert tracker.fired


def test_termination_run_resets_on_non_unit_reward():
    tracker = TerminationTracker(3)
    for reward in (1, 1, 0):
        assert tracker.observe(reward) is False
    assert tracker.current_run == 0
    for reward in (1, 1, -1, 1, 1):
        assert tracker.observe(reward) is False
    assert tracker.observe(1) is True


def test_termination_latches():
    tracker = TerminationTracker(2)
    tracker.observe(1)
    tracker.observe(1)
    assert tracker.fired
    # latched: a bad reward no longer clears it or its run
    assert tracker.observe(-1) is True
    assert tracker.fired
    assert tracker.current_run == 2


def test_termination_threshold_validation():
    with pytest.raises(ConfigError) as err:
        TerminationTracker(0)
    assert "must be >= 1" in str(err.value)
