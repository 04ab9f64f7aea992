"""Selector policy: forward pass, objective, gradients, Adam, checkpoints."""

from __future__ import annotations

import logging
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimsift import runstate
from claimsift.errors import CheckpointError, PolicyError
from claimsift.policy import (
    DISCARD,
    LEVEL_CLAIM,
    LEVEL_POST,
    MovingBaseline,
    OptimizerState,
    PolicyParams,
    RETAIN,
    ReplayTable,
    RewardBaseline,
    Step,
    forward,
    gradients,
    init_params,
    load_checkpoint,
    objective,
    reinforce_update,
    sample_action,
    save_checkpoint,
)

_HEAD_SIZE = struct.calcsize("<8sIIIQQ5d")


def _random_trajectories(rng, state_dim, n_claims, max_posts=3):
    trajs = []
    for _ in range(n_claims):
        claim = Step(
            state=rng.normal(size=state_dim),
            action=RETAIN if rng.random() < 0.5 else DISCARD,
            logprob=0.0,
            level=LEVEL_CLAIM,
            p_retain=0.5,
            reward=int(rng.integers(-1, 2)),
        )
        posts = [
            Step(
                state=rng.normal(size=state_dim),
                action=RETAIN if rng.random() < 0.5 else DISCARD,
                logprob=0.0,
                level=LEVEL_POST,
                p_retain=0.5,
                reward=int(rng.integers(-1, 2)),
            )
            for _ in range(int(rng.integers(1, max_posts + 1)))
        ]
        trajs.append((claim, posts))
    return trajs


def _numeric_gradients(params, trajectories, h=1e-6):
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


# ------------------------------------------------------ init / forward

def test_init_params_glorot_bounds_and_determinism():
    params = init_params(20, 10, np.random.default_rng(11))
    assert params.w1.shape == (10, 20)
    assert params.w2.shape == (10,)
    assert np.all(np.abs(params.w1) <= np.sqrt(6.0 / 30.0))
    assert np.all(np.abs(params.w2) <= np.sqrt(6.0 / 11.0))
    again = init_params(20, 10, np.random.default_rng(11))
    np.testing.assert_array_equal(params.w1, again.w1)
    np.testing.assert_array_equal(params.w2, again.w2)
    with pytest.raises(PolicyError):
        init_params(0, 4, np.random.default_rng(0))


def test_forward_hand_computation():
    params = PolicyParams(
        w1=np.array([[1.0, 0.0], [0.0, 1.0]]), w2=np.array([1.0, -2.0])
    )
    # pre [2, 3] -> z = 2 - 6 = -4
    assert forward(params, np.array([2.0, 3.0])) == \
        pytest.approx(1.0 / (1.0 + np.exp(4.0)), abs=1e-15)
    # relu clamps the negative pre-activation: pre [-1, 2] -> z = -4 again
    assert forward(params, np.array([-1.0, 2.0])) == \
        pytest.approx(1.0 / (1.0 + np.exp(4.0)), abs=1e-15)
    with pytest.raises(PolicyError, match=r"expected \(2,\)"):
        forward(params, np.zeros(3))


def test_sample_action_rejects_width_mismatch():
    params = PolicyParams(
        w1=np.array([[1.0, 0.0], [0.0, 1.0]]), w2=np.array([1.0, -2.0])
    )
    with pytest.raises(PolicyError, match=r"expected \(2,\)"):
        sample_action(params, np.zeros(3), np.random.default_rng(0), LEVEL_POST)


def test_sample_action_extremes_have_finite_logprobs():
    rng = np.random.default_rng(0)
    sure = PolicyParams(w1=np.array([[1.0]]), w2=np.array([500.0]))
    step = sample_action(sure, np.array([1.0]), rng, LEVEL_POST)
    assert step.action == RETAIN
    assert step.level == LEVEL_POST
    assert step.p_retain == pytest.approx(1.0)
    assert np.isfinite(step.logprob) and step.logprob <= 0.0

    never = PolicyParams(w1=np.array([[1.0]]), w2=np.array([-500.0]))
    step = sample_action(never, np.array([1.0]), rng, LEVEL_CLAIM)
    assert step.action == DISCARD
    assert np.isfinite(step.logprob)
    assert step.logprob == pytest.approx(0.0, abs=1e-12)


def test_sample_action_rate_matches_probability():
    params = PolicyParams(w1=np.array([[1.0]]), w2=np.array([0.0]))  # p = 0.5
    rng = np.random.default_rng(42)
    state = np.array([1.0])
    n = 4000
    retains = sum(
        sample_action(params, state, rng, LEVEL_POST).action == RETAIN
        for _ in range(n)
    )
    assert abs(retains / n - 0.5) < 0.035


# ---------------------------------------------------------- objective

def test_objective_engineered_value():
    # pick the logit whose log-sigmoid is exactly -0.5
    z0 = float(np.log(np.exp(-0.5) / (1.0 - np.exp(-0.5))))
    params = PolicyParams(w1=np.array([[1.0]]), w2=np.array([z0]))
    step = Step(np.array([1.0]), RETAIN, 0.0, LEVEL_CLAIM, 0.0, reward=1)
    assert objective(params, [(step, [])]) == pytest.approx(-0.5, abs=1e-12)
    assert objective(params, []) == 0.0


def test_objective_matches_hand_computation():
    params = PolicyParams(
        w1=np.array([[0.5, -0.25], [1.0, 0.75]]), w2=np.array([0.8, -0.6])
    )
    s_c1 = np.array([1.0, 2.0])
    s_p11 = np.array([-1.0, 0.5])
    s_p12 = np.array([0.3, -0.7])
    s_c2 = np.array([2.0, -1.0])
    trajs = [
        (
            Step(s_c1, RETAIN, 0.0, LEVEL_CLAIM, 0.0, reward=1),
            [
                Step(s_p11, DISCARD, 0.0, LEVEL_POST, 0.0, reward=-1),
                Step(s_p12, RETAIN, 0.0, LEVEL_POST, 0.0, reward=1),
            ],
        ),
        (Step(s_c2, DISCARD, 0.0, LEVEL_CLAIM, 0.0, reward=-1), []),
    ]

    def logp(state, retained):
        p = forward(params, state)
        return np.log(p) if retained else np.log1p(-p)

    expected = (
        1 * logp(s_c1, True) / 2
        + (-1) * logp(s_p11, False) / (2 * 2)
        + 1 * logp(s_p12, True) / (2 * 2)
        + (-1) * logp(s_c2, False) / 2
    )
    assert objective(params, trajs) == pytest.approx(expected, abs=1e-12)


def test_flatten_requires_rewards():
    params = init_params(3, 2, np.random.default_rng(0))
    bare = Step(np.zeros(3), RETAIN, 0.0, LEVEL_CLAIM, 0.5, reward=None)
    with pytest.raises(PolicyError, match="claim step has no reward"):
        objective(params, [(bare, [])])
    ok = Step(np.zeros(3), RETAIN, 0.0, LEVEL_CLAIM, 0.5, reward=1)
    post = Step(np.zeros(3), RETAIN, 0.0, LEVEL_POST, 0.5, reward=None)
    with pytest.raises(PolicyError, match="post step has no reward"):
        objective(params, [(ok, [post])])


# ----------------------------------------------------------- gradients

def _reference_flatten(trajectories, claim_shift=0.0, post_shift=0.0):
    """Stack-based flattening, as the update worked before the replay table."""
    t = len(trajectories)
    states, actions, weights = [], [], []
    for claim_step, post_steps in trajectories:
        states.append(claim_step.state)
        actions.append(claim_step.action == RETAIN)
        weights.append((claim_step.reward - claim_shift) / t)
        t_prime = len(post_steps)
        for post_step in post_steps:
            states.append(post_step.state)
            actions.append(post_step.action == RETAIN)
            weights.append((post_step.reward - post_shift) / (t * t_prime))
    return (np.stack(states), np.asarray(actions, dtype=bool),
            np.asarray(weights, dtype=np.float64))


def _reference_objective(params, trajectories):
    states, actions, weights = _reference_flatten(trajectories)
    z = np.maximum(states @ params.w1.T, 0.0) @ params.w2
    logp = np.where(actions, -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z))
    return float(weights @ logp)


def _reference_gradients(params, trajectories, claim_shift, post_shift):
    states, actions, weights = _reference_flatten(trajectories, claim_shift, post_shift)
    pre = states @ params.w1.T
    hidden = np.maximum(pre, 0.0)
    z = hidden @ params.w2
    p = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                 np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    g_z = np.where(actions, 1.0 - p, -p) * weights
    back = (g_z[:, None] * params.w2[None, :]) * (pre > 0.0).astype(np.float64)
    return back.T @ states, hidden.T @ g_z


_finite = st.floats(-4.0, 4.0, allow_nan=False, width=64)
_step = st.tuples(st.lists(_finite, min_size=3, max_size=3), st.booleans(),
                  st.sampled_from([-1, 0, 1]))


@settings(max_examples=60, deadline=None)
@given(
    window=st.sampled_from([None, 1, 2, 3]),
    trajectories=st.lists(st.tuples(_step, st.lists(_step, max_size=4)),
                          min_size=1, max_size=7),
    shifts=st.tuples(_finite, _finite),
    seed=st.integers(0, 2**32 - 1),
)
def test_replay_table_matches_stacked_reference(window, trajectories, shifts, seed):
    """Built by appends and leading deletes, the table gives bitwise the
    gradients and objective of re-stacking the trailing window, and holds
    each buffered state once."""
    params = init_params(3, 2, np.random.default_rng(seed))

    def steps(level, spec):
        state, retain, reward = spec
        action = RETAIN if retain else DISCARD
        return (Step(np.array(state), action, 0.0, level, 0.5, reward),
                Step(np.array(state), action, 0.0, level, 0.5, reward))

    table = ReplayTable(np.empty((0, 3)))
    held, reference, dropped = [], [], []
    for claim_spec, post_specs in trajectories:
        claim, claim_ref = steps(LEVEL_CLAIM, claim_spec)
        posts = [steps(LEVEL_POST, spec) for spec in post_specs]
        held.append((claim, tuple(step for step, _ref in posts)))
        reference.append((claim_ref, [ref for _step, ref in posts]))
        table.append(*held[-1])
        if window is not None:
            dropped += held[:-window]
            del held[:-window], reference[:-window]
            del table[:-window]

        assert [pair[0] for pair in table] == [claim for claim, _posts in held]
        assert table == ReplayTable.of(reference)
        for (claim, posts), (claim_ref, posts_ref) in zip(held, reference):
            for step, ref in zip((claim, *posts), (claim_ref, *posts_ref)):
                assert np.shares_memory(step.state, table.states)
                assert step.state.tobytes() == ref.state.tobytes()
        for got, want in zip(gradients(params, table, *shifts),
                             _reference_gradients(params, reference, *shifts)):
            assert got.tobytes() == want.tobytes()
        got = objective(params, table)
        assert np.float64(got).tobytes() == \
            np.float64(_reference_objective(params, reference)).tobytes()
        assert objective(params, held) == got  # the plain-list path

    # trimmed steps got their states back as copies of their own
    for claim, posts in dropped:
        for step in (claim, *posts):
            assert not np.shares_memory(step.state, table.states)


def test_replay_table_deletes_only_leading_slices():
    table = ReplayTable(np.empty((0, 2)))
    for reward in (1, -1, 0):
        table.append(Step(np.full(2, reward), RETAIN, 0.0, LEVEL_CLAIM, 0.5, reward), ())
    for index in (0, slice(1, None), slice(None, None, 2)):
        with pytest.raises(TypeError, match="leading slice"):
            del table[index]
    del table[:-5]
    assert len(table) == 3
    del table[:-1]
    assert [claim.reward for claim, _posts in table] == [0]
    assert table.states.tolist() == [[0.0, 0.0]]


def test_replay_table_rejects_unrewarded_steps_without_changing():
    table = ReplayTable(np.empty((0, 2)))
    ok = Step(np.ones(2), RETAIN, 0.0, LEVEL_CLAIM, 0.5, reward=1)
    bare = Step(np.zeros(2), RETAIN, 0.0, LEVEL_POST, 0.5, reward=None)
    with pytest.raises(PolicyError, match="post step has no reward"):
        table.append(ok, [bare])
    assert len(table) == 0 and table.states.shape == (0, 2)
    assert not np.shares_memory(ok.state, table.states)


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
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
    assert worst < 1e-5


def test_gradient_shifts_match_reward_shifted_copies():
    rng = np.random.default_rng(33)
    params = init_params(5, 3, rng)
    trajs = _random_trajectories(rng, 5, n_claims=4)
    a, b = 0.4, -0.25
    shifted = [
        (
            Step(c.state, c.action, c.logprob, c.level, c.p_retain, c.reward - a),
            [
                Step(p.state, p.action, p.logprob, p.level, p.p_retain, p.reward - b)
                for p in posts
            ],
        )
        for c, posts in trajs
    ]
    direct = gradients(params, trajs, claim_shift=a, post_shift=b)
    manual = gradients(params, shifted)
    np.testing.assert_allclose(direct[0], manual[0], atol=1e-15)
    np.testing.assert_allclose(direct[1], manual[1], atol=1e-15)


def test_empty_buffer_gradients_are_zero():
    params = init_params(3, 2, np.random.default_rng(4))
    g_w1, g_w2 = gradients(params, [])
    np.testing.assert_array_equal(g_w1, np.zeros_like(params.w1))
    np.testing.assert_array_equal(g_w2, np.zeros_like(params.w2))


# ------------------------------------------------------------ baselines

def test_moving_baseline_math():
    base = MovingBaseline(momentum=0.9)
    assert base.get() == 0.0
    base.update(1.0)
    assert base.get() == 1.0  # first observation seeds the average
    base.update(0.0)
    assert base.get() == pytest.approx(0.9)
    base.update(-1.0)
    assert base.get() == pytest.approx(0.9 * 0.9 + 0.1 * -1.0)


def test_reward_baseline_tracks_levels_separately():
    base = RewardBaseline()
    claim = Step(np.zeros(2), RETAIN, 0.0, LEVEL_CLAIM, 0.5, reward=1)
    posts = [
        Step(np.zeros(2), RETAIN, 0.0, LEVEL_POST, 0.5, reward=1),
        Step(np.zeros(2), DISCARD, 0.0, LEVEL_POST, 0.5, reward=0),
    ]
    base.observe((claim, posts))
    assert base.claim.get() == 1.0
    assert base.post.get() == 0.5
    # unrewarded steps are skipped rather than counted as zeros
    unrewarded = Step(np.zeros(2), RETAIN, 0.0, LEVEL_CLAIM, 0.5, reward=None)
    base.observe((unrewarded, []))
    assert base.claim.get() == 1.0
    assert base.post.get() == 0.5


# -------------------------------------------------------------- updates

def test_adam_step_is_exact_for_single_weight():
    params = PolicyParams(w1=np.array([[1.0]]), w2=np.array([0.5]))
    opt = OptimizerState(learning_rate=0.01, planned_updates=0)
    step = Step(np.array([2.0]), RETAIN, 0.0, LEVEL_CLAIM, 0.0, reward=1)

    # analytic: pre = 2, hidden = 2, z = 1, weight = 1/1
    z = 2.0 * 0.5
    p = 1.0 / (1.0 + np.exp(-z))
    g_z = 1.0 - p
    g_w2 = 2.0 * g_z
    g_w1 = g_z * 0.5 * 2.0
    # first Adam step with bias correction collapses to lr * g / (|g| + eps)
    expected_w2 = 0.5 + 0.01 * g_w2 / (abs(g_w2) + 1e-8)
    expected_w1 = 1.0 + 0.01 * g_w1 / (abs(g_w1) + 1e-8)

    reinforce_update(params, opt, [(step, [])])
    assert opt.step == 1
    assert params.w2[0] == pytest.approx(expected_w2, abs=1e-12)
    assert params.w1[0, 0] == pytest.approx(expected_w1, abs=1e-12)


def test_in_place_adam_is_bitwise_the_textbook_update():
    rng = np.random.default_rng(17)
    params = init_params(6, 4, rng)
    textbook = params.copy()
    opt = OptimizerState(learning_rate=0.05, warmup_fraction=0.5, planned_updates=10)
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    m = [np.zeros_like(textbook.w1), np.zeros_like(textbook.w2)]
    v = [np.zeros_like(textbook.w1), np.zeros_like(textbook.w2)]
    for step in range(1, 9):  # five warm-up steps, then the full rate
        trajs = _random_trajectories(rng, 6, n_claims=3)
        grads = gradients(textbook, trajs)
        lr = opt.lr_at(step)
        for i, (name, g) in enumerate(zip(("w1", "w2"), grads)):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g ** 2
            m_hat = m[i] / (1.0 - b1 ** step)
            v_hat = v[i] / (1.0 - b2 ** step)
            setattr(textbook, name,
                    getattr(textbook, name) + lr * m_hat / (np.sqrt(v_hat) + eps))
        reinforce_update(params, opt, trajs)
        assert opt.step == step
        for got, want in ((params.w1, textbook.w1), (params.w2, textbook.w2),
                          (opt.m_w1, m[0]), (opt.m_w2, m[1]),
                          (opt.v_w1, v[0]), (opt.v_w2, v[1])):
            assert got.tobytes() == want.tobytes()


def test_update_ascends_objective():
    rng = np.random.default_rng(21)
    params = init_params(6, 4, rng)
    trajs = _random_trajectories(rng, 6, n_claims=5)
    before = objective(params, trajs)
    reinforce_update(
        params, OptimizerState(learning_rate=1e-3, planned_updates=0), trajs
    )
    assert objective(params, trajs) > before


def test_update_with_baseline_matches_manual_shift():
    rng = np.random.default_rng(55)
    params_a = init_params(4, 3, rng)
    params_b = params_a.copy()
    trajs = _random_trajectories(rng, 4, n_claims=3)

    base = RewardBaseline()
    base.claim.update(0.5)
    base.post.update(-0.5)
    reinforce_update(
        params_a, OptimizerState(learning_rate=0.01), trajs, baseline=base
    )

    shifted = [
        (
            Step(c.state, c.action, c.logprob, c.level, c.p_retain, c.reward - 0.5),
            [
                Step(p.state, p.action, p.logprob, p.level, p.p_retain,
                     p.reward + 0.5)
                for p in posts
            ],
        )
        for c, posts in trajs
    ]
    reinforce_update(params_b, OptimizerState(learning_rate=0.01), shifted)
    np.testing.assert_allclose(params_a.w1, params_b.w1, atol=1e-14)
    np.testing.assert_allclose(params_a.w2, params_b.w2, atol=1e-14)

    # the window's newest trajectory is folded in after the shift is read
    last_claim_reward = trajs[-1][0].reward
    assert base.claim.get() == pytest.approx(0.9 * 0.5 + 0.1 * last_claim_reward)


def test_empty_window_is_noop():
    params = init_params(3, 2, np.random.default_rng(2))
    before = params.w1.copy()
    opt = OptimizerState()
    reinforce_update(params, opt, [])
    np.testing.assert_array_equal(params.w1, before)
    assert opt.step == 0


def test_non_finite_gradients_are_skipped(caplog):
    params = init_params(3, 2, np.random.default_rng(1))
    before = params.w1.copy()
    step = Step(np.ones(3), RETAIN, 0.0, LEVEL_CLAIM, 0.5, reward=np.inf)
    opt = OptimizerState()
    with caplog.at_level(logging.WARNING, logger="claimsift.policy"):
        reinforce_update(params, opt, [(step, [])])
    np.testing.assert_array_equal(params.w1, before)
    assert opt.step == 0
    assert any("non-finite gradient" in r.message for r in caplog.records)


def test_warmup_schedule():
    opt = OptimizerState(learning_rate=1.0, warmup_fraction=0.5, planned_updates=10)
    assert opt.lr_at(1) == pytest.approx(0.2)
    assert opt.lr_at(4) == pytest.approx(0.8)
    assert opt.lr_at(5) == pytest.approx(1.0)
    assert opt.lr_at(50) == pytest.approx(1.0)
    flat = OptimizerState(learning_rate=0.3, planned_updates=0)
    assert flat.lr_at(1) == 0.3


# ----------------------------------------------------------- checkpoints

def _trained_pair(seed=3):
    rng = np.random.default_rng(seed)
    params = init_params(6, 4, rng)
    opt = OptimizerState(learning_rate=0.02, warmup_fraction=0.2, planned_updates=40)
    trajs = _random_trajectories(rng, 6, n_claims=3)
    reinforce_update(params, opt, trajs)
    reinforce_update(params, opt, trajs)
    return params, opt


def test_checkpoint_round_trip(tmp_path):
    params, opt = _trained_pair()
    path = tmp_path / "policy.ckpt"
    save_checkpoint(params, opt, path)
    params2, opt2 = load_checkpoint(path)
    np.testing.assert_array_equal(params2.w1, params.w1)
    np.testing.assert_array_equal(params2.w2, params.w2)
    np.testing.assert_array_equal(opt2.m_w1, opt.m_w1)
    np.testing.assert_array_equal(opt2.v_w1, opt.v_w1)
    np.testing.assert_array_equal(opt2.m_w2, opt.m_w2)
    np.testing.assert_array_equal(opt2.v_w2, opt.v_w2)
    assert opt2.step == 2
    assert opt2.planned_updates == 40
    for name in ("learning_rate", "warmup_fraction", "beta1", "beta2", "eps"):
        assert getattr(opt2, name) == getattr(opt, name)


def test_checkpoint_resume_continues_identically(tmp_path):
    params, opt = _trained_pair(seed=8)
    rng = np.random.default_rng(99)
    trajs = _random_trajectories(rng, 6, n_claims=2)

    path = tmp_path / "mid.ckpt"
    save_checkpoint(params, opt, path)
    reinforce_update(params, opt, trajs)

    params2, opt2 = load_checkpoint(path)
    reinforce_update(params2, opt2, trajs)
    np.testing.assert_array_equal(params2.w1, params.w1)
    np.testing.assert_array_equal(params2.w2, params.w2)
    assert opt2.step == opt.step


def test_checkpoint_error_classes(tmp_path):
    params, opt = _trained_pair()
    good = tmp_path / "good.ckpt"
    save_checkpoint(params, opt, good)
    blob = good.read_bytes()

    short = tmp_path / "short.ckpt"
    short.write_bytes(blob[:10])
    with pytest.raises(CheckpointError, match="truncated checkpoint file"):
        load_checkpoint(short)

    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="truncated checkpoint file"):
        load_checkpoint(clipped)

    magic = tmp_path / "magic.ckpt"
    magic.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(magic)

    version = tmp_path / "version.ckpt"
    mutated = bytearray(blob)
    mutated[8] = 3  # little-endian version word
    version.write_bytes(bytes(mutated))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 3"):
        load_checkpoint(version)

    corrupt = tmp_path / "corrupt.ckpt"
    mutated = bytearray(blob)
    mutated[_HEAD_SIZE + (len(blob) - _HEAD_SIZE) // 2] ^= 0xFF
    corrupt.write_bytes(bytes(mutated))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(corrupt)


def test_version_1_checkpoint_is_rejected(tmp_path):
    """The version-1 layout also stored batch_size and max_epochs."""
    params, opt = _trained_pair()
    head = struct.pack(
        "<8sIIIQQII5d", b"CSPOLICY", 1, params.state_dim, params.hidden_dim,
        opt.step, opt.planned_updates, 2, 9, opt.learning_rate,
        opt.warmup_fraction, opt.beta1, opt.beta2, opt.eps,
    )
    body = head + b"".join(a.astype("<f8").tobytes() for a in (
        params.w1, params.w2, opt.m_w1, opt.v_w1, opt.m_w2, opt.v_w2))
    path = tmp_path / "v1.ckpt"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


class _FailingZlib:
    """zlib whose crc32 fails on its fourth call, in the middle of a write."""

    def __init__(self):
        self.calls = 0

    def crc32(self, data, value=0):
        self.calls += 1
        if self.calls == 4:
            raise OSError("disk full")
        return zlib.crc32(data, value)


def _failing_fsync(fd):
    raise OSError("device lost")


@pytest.mark.parametrize("fault", ["mid-write", "fsync"])
def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch, fault):
    params, opt = _trained_pair()
    path = tmp_path / "policy.ckpt"
    save_checkpoint(params, opt, path)
    before = path.read_bytes()
    reinforce_update(params, opt, _random_trajectories(np.random.default_rng(5), 6, 2))
    if fault == "mid-write":
        monkeypatch.setattr(runstate, "zlib", _FailingZlib())
    else:
        monkeypatch.setattr(runstate.os, "fsync", _failing_fsync)
    with pytest.raises(OSError):
        save_checkpoint(params, opt, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["policy.ckpt"]
