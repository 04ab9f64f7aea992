"""Command-line interface.

Subcommands: train, evaluate, synth. All outputs land under the given
output directory with stable filenames. `train` commits each epoch as it
ends: it appends the epoch's annotation records and fine-tune examples to
the run directory, fsyncs the four JSONL files, then atomically rewrites
`run_state.ckpt` and `epoch_reports.json`. So the trainer holds no more than
one epoch of records, and a killed run leaves its last finished epoch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .annotators import export_finetune_set, make_backend
from .config import RunConfig, resolve_config, save_config
from .corpus import SynthConfig, generate_synthetic, load_dataset, save_dataset
from .engine import Trainer
from .errors import (
    CheckpointError,
    ClaimsiftError,
    ConfigError,
    DatasetError,
)
from .metrics import evaluate
from .policy import load_checkpoint
from .state import build_embedder


def _train_overrides(args) -> dict:
    return {
        "dataset": args.dataset,
        "out_dir": args.out,
        "rng_seed": args.rng_seed,
        "epsilon": args.epsilon,
        "max_epochs": args.max_epochs,
        "seed_fraction": args.seed_fraction,
        "max_posts": args.max_posts,
        "embed_dim": args.embed_dim,
        "hidden_dim": args.hidden_dim,
        "learning_rate": args.learning_rate,
        "buffer_window": args.buffer_window,
        "sd_endpoint": args.sd_endpoint,
        "rv_endpoint": args.rv_endpoint,
        "embed_endpoint": args.embed_endpoint,
    }


def _build_stack(config: RunConfig):
    sd = make_backend(config.sd_backend, rng=np.random.default_rng((config.rng_seed, 10)))
    rv = make_backend(config.rv_backend, rng=np.random.default_rng((config.rng_seed, 11)))
    embedder = build_embedder(config.embed_backend, config.embed_dim)
    return sd, rv, embedder


def cmd_train(args) -> int:
    config = resolve_config(args.config, _train_overrides(args))
    if not config.dataset:
        raise ConfigError("dataset: required (pass --dataset or set it in the config)")
    if not config.out_dir:
        raise ConfigError("out_dir: required (pass --out or set it in the config)")
    dataset = load_dataset(config.dataset)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sd, rv, embedder = _build_stack(config)
    trainer = Trainer(config, dataset, sd, rv, embedder)
    save_config(config, out / "config.resolved.json")

    with (
        (out / "run_log.jsonl").open("w", encoding="utf-8") as log,
        (out / "annotations.jsonl").open("w", encoding="utf-8") as annotations,
        (out / "finetune_stance.jsonl").open("w", encoding="utf-8") as ft_stance,
        (out / "finetune_veracity.jsonl").open("w", encoding="utf-8") as ft_veracity,
    ):
        def on_epoch(report) -> None:
            # the trainer drops these records when the next epoch begins
            for record in trainer.annotation_records:
                annotations.write(json.dumps(record, ensure_ascii=False) + "\n")
            export_finetune_set(trainer.finetune_stance, ft_stance)
            export_finetune_set(trainer.finetune_veracity, ft_veracity)
            # the epoch's lines are on disk before the run state that follows them
            for fh in (log, annotations, ft_stance, ft_veracity):
                fh.flush()
                os.fsync(fh.fileno())
            trainer.save_run_state(out / "run_state.ckpt")
            reports = out / "epoch_reports.json.tmp"
            reports.write_text(
                json.dumps([r.to_dict() for r in trainer.reports], indent=2) + "\n",
                encoding="utf-8",
            )
            os.replace(reports, out / "epoch_reports.json")
            print(
                f"epoch {report.epoch}: claims={report.claims_processed} "
                f"posts={report.posts_annotated} retained={report.posts_retained} "
                f"mean_claim_reward={report.mean_claim_reward:+.3f} "
                f"mean_post_reward={report.mean_post_reward:+.3f}"
                + (" [terminated]" if report.terminated else "")
            )

        trainer.set_event_sink(lambda event: log.write(json.dumps(event) + "\n"))
        trainer.train(on_epoch=on_epoch)
        trainer.set_event_sink(None)

    print(f"run artifacts written to {out}")
    return 0


def cmd_evaluate(args) -> int:
    overrides = {
        "dataset": args.dataset,
        "rng_seed": args.rng_seed,
        "sd_endpoint": args.sd_endpoint,
        "rv_endpoint": args.rv_endpoint,
        "embed_endpoint": args.embed_endpoint,
    }
    config = resolve_config(args.config, overrides)
    if not config.dataset:
        raise ConfigError("dataset: required (pass --dataset or set it in the config)")
    dataset = load_dataset(config.dataset)
    sd, rv, embedder = _build_stack(config)
    params = None
    if args.checkpoint:
        params, _optimizer = load_checkpoint(args.checkpoint)
        expected = 3 * config.embed_dim
        if params.state_dim != expected:
            raise ConfigError(
                f"checkpoint: policy state width {params.state_dim} does not "
                f"match embed_dim {config.embed_dim} (expected {expected})"
            )
    report = evaluate(
        dataset, sd, rv,
        embedder=embedder,
        params=params,
        rng_seed=config.eval_seed,
        max_in_flight=config.sd_backend.max_in_flight,
    )
    print(report.to_json())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def cmd_synth(args) -> int:
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        synth_config = SynthConfig.from_dict(raw)
    else:
        synth_config = SynthConfig()
    overrides = {
        "n_claims": args.n_claims,
        "posts_per_claim": args.posts_per_claim,
        "noise_post_fraction": args.noise_fraction,
        "rng_seed": args.rng_seed,
        "name": args.name,
    }
    raw = synth_config.to_dict()
    raw.update({k: v for k, v in overrides.items() if v is not None})
    synth_config = SynthConfig.from_dict(raw)
    dataset = generate_synthetic(synth_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{synth_config.name}.jsonl"
    save_dataset(dataset, path)
    print(json.dumps({"path": str(path), **dataset.stats()}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimsift",
        description="Reinforcement label selection for stance and veracity "
                    "annotation of rumor corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train the selector policy on a corpus")
    train.add_argument("--config", help="JSON run config")
    train.add_argument("--dataset", help="training corpus (JSONL)")
    train.add_argument("--out", help="output directory for run artifacts")
    train.add_argument("--rng-seed", type=int, dest="rng_seed")
    train.add_argument("--epsilon", type=float)
    train.add_argument("--max-epochs", type=int, dest="max_epochs")
    train.add_argument("--seed-fraction", type=float, dest="seed_fraction")
    train.add_argument("--max-posts", type=int, dest="max_posts")
    train.add_argument("--embed-dim", type=int, dest="embed_dim")
    train.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    train.add_argument("--learning-rate", type=float, dest="learning_rate")
    train.add_argument("--buffer-window", type=int, dest="buffer_window")
    train.add_argument("--sd-endpoint", dest="sd_endpoint")
    train.add_argument("--rv-endpoint", dest="rv_endpoint")
    train.add_argument("--embed-endpoint", dest="embed_endpoint")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score both tasks on a labeled corpus")
    ev.add_argument("--config", help="JSON run config")
    ev.add_argument("--dataset", help="evaluation corpus (JSONL)")
    ev.add_argument("--checkpoint",
                    help="a run's run_state.ckpt; its policy filters the posts")
    ev.add_argument("--out", help="directory for metrics.json")
    ev.add_argument("--rng-seed", type=int, dest="rng_seed")
    ev.add_argument("--sd-endpoint", dest="sd_endpoint")
    ev.add_argument("--rv-endpoint", dest="rv_endpoint")
    ev.add_argument("--embed-endpoint", dest="embed_endpoint")
    ev.set_defaults(func=cmd_evaluate)

    synth = sub.add_parser("synth", help="generate a synthetic marker corpus")
    synth.add_argument("--config", help="JSON generator config")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--n-claims", type=int, dest="n_claims")
    synth.add_argument("--posts-per-claim", type=int, dest="posts_per_claim")
    synth.add_argument("--noise-fraction", type=float, dest="noise_fraction")
    synth.add_argument("--rng-seed", type=int, dest="rng_seed")
    synth.add_argument("--name", dest="name")
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClaimsiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
