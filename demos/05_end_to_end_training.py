"""Train the selector end to end on a synthetic corpus and evaluate it.

A scaled-down version of the full loop: generate a training corpus with
30% noise posts, train the retain/discard policy against oracle
annotators, then compare held-out veracity micro-F1 and the retain-rate
gap between signal and noise posts against a frozen random policy.
"""

import argparse
import time

import numpy as np

from claimsift.annotators import OracleAnnotator, annotate_post
from claimsift.config import RunConfig
from claimsift.corpus import SynthConfig, generate_synthetic
from claimsift.engine import Trainer
from claimsift.metrics import evaluate
from claimsift.policy import RETAIN, init_params
from claimsift.state import HashedEmbedder, PostDecider


def skewed_mix(weight=0.85):
    modal = {0: 3, 1: 0, 2: 1, 3: 2}  # N->C, T->S, F->D, U->Q
    rest = (1.0 - weight) / 3.0
    rows = []
    for row_index in range(4):
        row = [rest] * 4
        row[modal[row_index]] = weight
        rows.append(tuple(row))
    return tuple(rows)


def measure_gap(params, dataset, embedder, seed):
    """Retain rates of signal and noise posts, each thread walked in order
    with the decision step that training uses."""
    sd = OracleAnnotator(rng=np.random.default_rng(seed))
    action_rng = np.random.default_rng(seed + 1)
    marked, noise = [], []
    for claim in dataset.claims:
        decider = PostDecider(params, embedder, embedder.embed(claim.text))
        for post in claim.posts:
            annotation = annotate_post(sd, claim, post)
            step = decider.decide(action_rng, post.text, annotation)
            (noise if post.stance is None else marked).append(step.action == RETAIN)
    return float(np.mean(marked)), float(np.mean(noise))


def veracity_micro(params, dataset, embedder, seed):
    sd = OracleAnnotator(rng=np.random.default_rng(seed))
    rv = OracleAnnotator(rng=np.random.default_rng(seed + 1))
    return evaluate(dataset, sd, rv, embedder=embedder,
                    params=params).veracity.micro_f1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--claims", type=int, default=80)
    args = parser.parse_args()

    start = time.time()
    mix = skewed_mix()
    train_ds = generate_synthetic(SynthConfig(
        n_claims=args.claims, posts_per_claim=20, noise_post_fraction=0.3,
        stance_given_veracity=mix, rng_seed=101,
    ))
    held_out = generate_synthetic(SynthConfig(
        n_claims=100, posts_per_claim=20, noise_post_fraction=0.3,
        stance_given_veracity=mix, rng_seed=202,
    ))

    config = RunConfig(
        embed_dim=64, hidden_dim=32, learning_rate=3e-3, buffer_window=1,
        max_epochs=args.epochs, epsilon=0.3, rng_seed=args.seed,
        use_baseline=True, incremental_veracity=True,
    )
    embedder = HashedEmbedder(config.embed_dim)
    trainer = Trainer(
        config, train_ds,
        OracleAnnotator(rng=np.random.default_rng((args.seed, 10))),
        OracleAnnotator(rng=np.random.default_rng((args.seed, 11))),
        embedder,
    )
    print(f"training on {len(train_ds)} claims, {args.epochs} epochs:")
    trainer.train(on_epoch=lambda report: print(
        f"  epoch {report.epoch}: claim_reward={report.mean_claim_reward:+.3f} "
        f"post_reward={report.mean_post_reward:+.3f} "
        f"retained={report.posts_retained}/{report.posts_annotated}"))

    marked, noise = measure_gap(trainer.params, held_out, embedder, 909)
    print(f"\nheld-out retain rates: signal={marked:.3f} noise={noise:.3f} "
          f"gap={marked - noise:+.3f}")

    frozen = init_params(3 * config.embed_dim, config.hidden_dim,
                         np.random.default_rng(777))
    micro_frozen = veracity_micro(frozen, held_out, embedder, 5000)
    micro_trained = veracity_micro(trainer.params, held_out, embedder, 5000)
    print(f"held-out veracity micro-F1: frozen={micro_frozen:.3f} "
          f"trained={micro_trained:.3f} "
          f"margin={100 * (micro_trained - micro_frozen):+.1f} pts")
    print(f"total wall time {time.time() - start:.1f}s")


if __name__ == "__main__":
    main()
