"""Acceptance gate: nine behavioral criteria, one summary line each.

Run with -s to see the per-criterion lines alongside the pytest verdicts.
Every threshold is asserted, so a failed criterion fails its test.
"""

from __future__ import annotations

import time

import numpy as np

from claimsift.annotators import OracleAnnotator, annotate_post
from claimsift.config import RunConfig
from claimsift.corpus import SynthConfig, generate_synthetic, load_dataset, save_dataset
from claimsift.engine import Trainer
from claimsift.labels import STANCES, STANCE_NAMES, VERACITY_NAMES, one_hot
from claimsift.metrics import ConfusionMatrix, evaluate, macro_f1, micro_f1, per_class_f1
from claimsift.policy import (
    DISCARD,
    LEVEL_CLAIM,
    LEVEL_POST,
    PolicyParams,
    RETAIN,
    Step,
    forward,
    gradients,
    init_params,
    objective,
)
from claimsift.prompts import (
    STANCE_TEMPLATE,
    VERACITY_TEMPLATE,
    parse_stance_response,
    parse_veracity_response,
)
from claimsift.reward import centered_cosine, sign_similarity
from claimsift.selection import GREEDY, PoolExhausted, PostSampler, TerminationTracker
from claimsift.state import HashedEmbedder, PostDecider


def _summary(criterion: int, description: str, detail: str = "") -> None:
    line = f"[criterion {criterion}] {description}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


# ------------------------------------------------------------ criterion 1

def _random_trajectories(rng, state_dim, n_claims, max_posts=3):
    trajs = []
    for _ in range(n_claims):
        def step(level):
            return Step(
                state=rng.normal(size=state_dim),
                action=RETAIN if rng.random() < 0.5 else DISCARD,
                logprob=0.0,
                level=level,
                p_retain=0.5,
                reward=int(rng.integers(-1, 2)),
            )
        posts = [step(LEVEL_POST) for _ in range(int(rng.integers(1, max_posts + 1)))]
        trajs.append((step(LEVEL_CLAIM), posts))
    return trajs


def _numeric_gradients(params, trajectories, h=1e-5):
    grads = []
    for arr in (params.w1, params.w2):
        out = np.zeros_like(arr)
        flat, gflat = arr.ravel(), out.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = objective(params, trajectories)
            flat[i] = orig - h
            lo = objective(params, trajectories)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(out)
    return grads[0], grads[1]


def test_criterion_1_analytic_gradients_match_finite_differences():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        state_dim = int(rng.integers(2, 7))
        hidden_dim = int(rng.integers(1, 5))
        params = init_params(state_dim, hidden_dim, rng)
        trajs = _random_trajectories(
            rng, state_dim, n_claims=int(rng.integers(1, 4))
        )
        for analytic, numeric in zip(
            gradients(params, trajs), _numeric_gradients(params, trajs)
        ):
            denom = np.maximum(
                np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6
            )
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    elapsed = time.time() - start
    assert worst < 1e-5
    assert elapsed < 5.0
    _summary(1, "analytic gradients match finite differences over 100 instances",
             f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 2

def test_criterion_2_epsilon_greedy_subsampling():
    start = time.time()
    epsilon = 0.3
    greedy_draws = 0
    for i in range(10_000):
        sampler = PostSampler(10, epsilon, np.random.default_rng(i))
        index = sampler.sample()
        if sampler.last_branch == GREEDY:
            greedy_draws += 1
            assert index == 0  # the greedy branch takes the earliest post
    frequency = greedy_draws / 10_000
    assert 0.286 <= frequency <= 0.314

    sampler = PostSampler(10, 0.5, np.random.default_rng(99))
    drawn = [sampler.sample() for _ in range(10)]
    assert sorted(drawn) == list(range(10))  # without replacement
    try:
        sampler.sample()
        raise AssertionError("exhausted sampler should refuse an 11th draw")
    except PoolExhausted:
        pass
    elapsed = time.time() - start
    assert elapsed < 2.0
    _summary(2, "epsilon-greedy draws mix both branches and never repeat",
             f"greedy frequency {frequency:.3f}, {elapsed:.1f}s")


# ------------------------------------------------------------ criterion 3

def test_criterion_3_sign_of_centered_cosine_rewards():
    start = time.time()
    target = one_hot("T", "veracity")
    uniform = np.full(4, 0.25)
    wrong = np.full(4, 0.025)
    wrong[2] = 0.925  # confident mass on F while the truth is T
    assert sign_similarity(target, target) == 1
    assert sign_similarity(uniform, target) == 0
    assert sign_similarity(wrong, target) == -1
    assert abs(centered_cosine(wrong, target) + 1.0 / 3.0) < 1e-12

    rng = np.random.default_rng(17)
    for _ in range(1_000):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        forwardv, backward = sign_similarity(p, q), sign_similarity(q, p)
        assert forwardv == backward
        assert forwardv in (-1, 0, 1)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _summary(3, "rewards are the symmetric sign of the centered cosine",
             f"{elapsed:.1f}s")


# ------------------------------------------------------------ criterion 4

def test_criterion_4_f1_scoring():
    start = time.time()
    pairs = [("S", "S"), ("S", "D"), ("D", "D"), ("C", "C")]
    cm = ConfusionMatrix.from_pairs(pairs, STANCES)
    assert abs(micro_f1(cm) - 0.75) < 1e-12
    assert abs(macro_f1(cm) - 7.0 / 9.0) < 1e-12
    by_class = per_class_f1(cm)
    assert abs(by_class["S"] - 2.0 / 3.0) < 1e-12
    assert abs(by_class["D"] - 2.0 / 3.0) < 1e-12
    assert by_class["Q"] is None
    assert abs(by_class["C"] - 1.0) < 1e-12

    rng = np.random.default_rng(123)
    for _ in range(1_000):
        n = int(rng.integers(1, 30))
        random_pairs = [
            (STANCES[rng.integers(4)], STANCES[rng.integers(4)])
            for _ in range(n)
        ]
        matrix = ConfusionMatrix.from_pairs(random_pairs, STANCES)
        accuracy = sum(g == p for g, p in random_pairs) / n
        assert abs(micro_f1(matrix) - accuracy) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 2.0
    _summary(4, "micro/macro F1 match hand-scored fixtures and accuracy",
             f"{elapsed:.1f}s")


# ------------------------------------------------------------ criterion 5

def _skewed_stance_mix(weight):
    modal = {0: 3, 1: 0, 2: 1, 3: 2}  # N->C, T->S, F->D, U->Q
    rest = (1.0 - weight) / 3.0
    rows = []
    for row_index in range(4):
        row = [rest] * 4
        row[modal[row_index]] = weight
        rows.append(tuple(row))
    return tuple(rows)


def _retain_rate_gap(params, dataset, embedder):
    """Retain-rate difference between stance-bearing and noise posts, each
    post decided as training and `evaluate` decide it (`PostDecider`)."""
    sd = OracleAnnotator(rng=np.random.default_rng(909))
    action_rng = np.random.default_rng(4242)
    retained_marked, retained_noise = [], []
    for claim in dataset.claims:
        decider = PostDecider(params, embedder, embedder.embed(claim.text))
        for post in claim.posts:
            step = decider.decide(action_rng, post.text, annotate_post(sd, claim, post))
            retained = step.action == RETAIN
            if post.stance is None:
                retained_noise.append(retained)
            else:
                retained_marked.append(retained)
    return float(np.mean(retained_marked) - np.mean(retained_noise))


def _held_out_veracity_micro(params, dataset, embedder, seed0):
    sd = OracleAnnotator(rng=np.random.default_rng(seed0))
    rv = OracleAnnotator(rng=np.random.default_rng(seed0 + 1))
    report = evaluate(dataset, sd, rv, embedder=embedder, params=params)
    return report.veracity.micro_f1


def test_criterion_5_training_beats_a_frozen_random_policy():
    start = time.time()
    mix = _skewed_stance_mix(0.85)
    train_ds = generate_synthetic(SynthConfig(
        n_claims=200, posts_per_claim=20, noise_post_fraction=0.3,
        stance_given_veracity=mix, rng_seed=101,
    ))
    held_out = generate_synthetic(SynthConfig(
        n_claims=240, posts_per_claim=20, noise_post_fraction=0.3,
        stance_given_veracity=mix, rng_seed=202,
    ))
    config = RunConfig(
        embed_dim=64, hidden_dim=32, learning_rate=3e-3, buffer_window=1,
        max_epochs=12, epsilon=0.3, rng_seed=5, use_baseline=True,
        incremental_veracity=True,
    )
    embedder = HashedEmbedder(config.embed_dim)
    trainer = Trainer(
        config, train_ds,
        OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 10))),
        OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 11))),
        embedder,
    )
    trainer.train()

    gap = _retain_rate_gap(trainer.params, held_out, embedder)
    frozen = init_params(
        3 * config.embed_dim, config.hidden_dim, np.random.default_rng(777)
    )
    micro_frozen = _held_out_veracity_micro(frozen, held_out, embedder, 5000)
    micro_trained = _held_out_veracity_micro(
        trainer.params, held_out, embedder, 5000
    )
    margin_points = 100.0 * (micro_trained - micro_frozen)
    elapsed = time.time() - start
    assert gap >= 0.10, f"retain-rate gap {gap:.3f} below 0.10"
    assert margin_points >= 5.0, (
        f"held-out veracity margin {margin_points:+.1f} points below 5"
    )
    assert elapsed < 300.0
    _summary(5, "training separates signal posts and lifts held-out veracity",
             f"gap {gap:.3f}, margin {margin_points:+.1f} pts, {elapsed:.0f}s")


# ------------------------------------------------------------ criterion 6

def test_criterion_6_termination_counts_continuous_unit_rewards():
    tracker = TerminationTracker(5)
    stream = [1, 1, 1, 1, 0, 1, 1, 1, 1, 1]
    fired_at = None
    for position, reward in enumerate(stream, start=1):
        if tracker.observe(reward) and fired_at is None:
            fired_at = position
    assert fired_at == 10  # the zero at step 5 restarts the count
    assert tracker.fired
    tracker.observe(0)
    assert tracker.fired  # latched
    _summary(6, "termination fires after five continuous unit rewards and latches")


# ------------------------------------------------------------ criterion 7

def test_criterion_7_mid_epoch_resume_is_exact(tmp_path):
    dataset = generate_synthetic(
        SynthConfig(n_claims=6, posts_per_claim=4, rng_seed=4)
    )
    config = RunConfig(
        embed_dim=16, hidden_dim=8, max_epochs=2, learning_rate=1e-3,
        use_baseline=True, rng_seed=9,
    )
    trainer = Trainer(
        config, dataset,
        OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 10))),
        OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 11))),
        HashedEmbedder(config.embed_dim),
    )
    trainer.run_epoch()
    assert trainer.run_epoch(limit=3) is None  # pause inside epoch 2
    state_path = tmp_path / "mid_epoch.state"
    trainer.save_run_state(state_path)
    report = trainer.run_epoch()

    resumed = Trainer.from_run_state(
        state_path, dataset, OracleAnnotator(rng=0), OracleAnnotator(rng=0),
        HashedEmbedder(config.embed_dim),
    )
    resumed_report = resumed.run_epoch()

    assert report == resumed_report
    np.testing.assert_array_equal(trainer.params.w1, resumed.params.w1)
    np.testing.assert_array_equal(trainer.params.w2, resumed.params.w2)
    _summary(7, "mid-epoch resume reproduces the epoch report and parameters")


# ------------------------------------------------------------ criterion 8

def test_criterion_8_prompt_contracts_round_trip():
    assert STANCE_TEMPLATE.endswith(
        "Please follow the format: Stance: [stance], Reason:[reason]."
    )
    assert VERACITY_TEMPLATE.endswith(
        "Please follows the format: Veracity: [veracity], Reason: [reason]."
    )
    for code, name in STANCE_NAMES.items():
        for rendered in (name, name.upper(), name.lower()):
            label, reason = parse_stance_response(
                f"Stance: {rendered}, Reason: because."
            )
            assert label == code
            assert reason == "because."
    for code, name in VERACITY_NAMES.items():
        for rendered in (name, name.upper(), name.lower()):
            label, reason = parse_veracity_response(
                f"Veracity: {rendered}, Reason: because."
            )
            assert label == code
            assert reason == "because."
    _summary(8, "prompt format lines are verbatim and all labels round-trip")


# ------------------------------------------------------------ criterion 9

def test_criterion_9_corpus_shape_and_round_trip(tmp_path):
    dataset = generate_synthetic(SynthConfig(
        n_claims=10, posts_per_claim=16, noise_post_fraction=0.25,
        rng_seed=42, name="shape_fixture",
    ))
    assert dataset.stats() == {
        "name": "shape_fixture",
        "claims": 10,
        "posts": 160,
        "labeled_claims": 10,
        "unlabeled_claims": 0,
        "avg_posts_per_claim": 16.0,
        "min_posts_per_claim": 16,
        "max_posts_per_claim": 16,
        "veracity_counts": {"N": 3, "T": 2, "F": 2, "U": 3},
    }
    path = tmp_path / "shape_fixture.jsonl"
    save_dataset(dataset, path)
    reloaded = load_dataset(path)
    assert reloaded.name == dataset.name
    assert reloaded.claims == dataset.claims
    _summary(9, "generator shape is stable and the corpus round-trips")
