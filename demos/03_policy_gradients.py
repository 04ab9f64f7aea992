"""One policy-gradient step by hand.

The retain/discard policy is a tiny two-layer network: p(retain) equals
sigmoid(w2 . relu(w1 . state)). The objective weights each log-prob by
its shifted reward, discounted by claim order and post order, and the
analytic gradients drive one Adam ascent step. This script shows the
objective actually going up.
"""

import argparse

import numpy as np

from claimsift.policy import (
    LEVEL_CLAIM,
    LEVEL_POST,
    OptimizerState,
    forward,
    gradients,
    init_params,
    objective,
    reinforce_update,
    sample_action,
)


def rollout(params, rng, state_dim, n_claims=6, posts_per_claim=4):
    """Sample trajectories and attach a toy reward.

    States whose coordinates sum positive are 'good': retaining them
    pays +1, discarding them pays -1, and the reverse for the rest. A
    policy that learns the sign of the sum earns the maximum reward.
    """
    trajectories = []
    for _ in range(n_claims):
        def play(level):
            state = rng.normal(size=state_dim)
            step = sample_action(params, state, rng, level)
            good = float(np.sum(state)) > 0.0
            retained = step.action == "retain"
            step.reward = 1 if retained == good else -1
            return step
        posts = [play(LEVEL_POST) for _ in range(posts_per_claim)]
        trajectories.append((play(LEVEL_CLAIM), posts))
    return trajectories


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--steps", type=int, default=40)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    state_dim, hidden_dim = 8, 6
    params = init_params(state_dim, hidden_dim, rng)
    optimizer = OptimizerState(learning_rate=0.05, warmup_fraction=0.0,
                               planned_updates=args.steps)

    probe = rng.normal(size=state_dim)
    print(f"p(retain) on a probe state before training: "
          f"{forward(params, probe):.3f}")

    for step_index in range(1, args.steps + 1):
        trajectories = rollout(params, rng, state_dim)
        score = objective(params, trajectories)
        g_w1, g_w2 = gradients(params, trajectories)
        reinforce_update(params, optimizer, trajectories)
        if step_index % 10 == 0 or step_index == 1:
            grad_norm = float(np.sqrt(np.sum(g_w1 ** 2) + np.sum(g_w2 ** 2)))
            mean_reward = float(np.mean(
                [s.reward for c, posts in trajectories for s in (c, *posts)]
            ))
            print(f"step {step_index:>3}: objective={score:+.4f} "
                  f"mean_reward={mean_reward:+.3f} grad_norm={grad_norm:.3f}")

    final = rollout(params, rng, state_dim, n_claims=50)
    mean_reward = float(np.mean(
        [s.reward for c, posts in final for s in (c, *posts)]
    ))
    print(f"\nmean reward over 50 fresh claims after training: "
          f"{mean_reward:+.3f} (random policy scores about 0)")


if __name__ == "__main__":
    main()
