"""Command-line interface.

Subcommands: train, evaluate, synth. All outputs land under the given
output directory with stable filenames. `train` commits each epoch as it
ends: it appends the epoch's annotation records and fine-tune examples to
the run directory, fsyncs the four JSONL files, then atomically and durably
replaces `run_state.ckpt` and `epoch_reports.json` (`runstate.atomic_write`;
`evaluate --out` writes `metrics.json` the same way). So the trainer holds
no more than one epoch of records, and a killed run leaves its last
finished epoch.

The trainer reads no clock: `train` stamps each `run_log.jsonl` line's `ts`
and times each epoch's `wall_time_s` in `epoch_reports.json`, from the end
of the previous commit (or the start of training) to the end of the epoch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .annotators import export_finetune_set, make_backend
from .config import RunConfig, read_config_file, resolve_config, save_config
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
from .runstate import atomic_write
from .state import build_embedder


# Parsed arguments that are not config fields; every other argument's dest
# is the name of the field it sets, or an endpoint key of `resolve_config`.
_NOT_FIELDS = ("command", "func", "config", "checkpoint", "out")


def _flags(args) -> dict:
    """The flags given on the command line, by the config field each sets."""
    return {k: v for k, v in vars(args).items()
            if k not in _NOT_FIELDS and v is not None}


def _build_stack(config: RunConfig):
    sd = make_backend(config.sd_backend, rng=np.random.default_rng((config.rng_seed, 10)))
    rv = make_backend(config.rv_backend, rng=np.random.default_rng((config.rng_seed, 11)))
    embedder = build_embedder(config.embed_backend, config.embed_dim)
    return sd, rv, embedder


def cmd_train(args) -> int:
    config = resolve_config(args.config, _flags(args))
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

    wall_times: list[float] = []
    with (
        (out / "run_log.jsonl").open("w", encoding="utf-8") as log,
        (out / "annotations.jsonl").open("w", encoding="utf-8") as annotations,
        (out / "finetune_stance.jsonl").open("w", encoding="utf-8") as ft_stance,
        (out / "finetune_veracity.jsonl").open("w", encoding="utf-8") as ft_veracity,
    ):
        def on_epoch(report) -> None:
            nonlocal since
            wall_times.append(time.perf_counter() - since)
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
            reports = json.dumps([{**r.to_dict(), "wall_time_s": wall}
                                  for r, wall in zip(trainer.reports, wall_times)],
                                 indent=2) + "\n"
            with atomic_write(out / "epoch_reports.json") as fh:
                fh.write(reports.encode("utf-8"))
            print(
                f"epoch {report.epoch}: claims={report.claims_processed} "
                f"posts={report.posts_annotated} retained={report.posts_retained} "
                f"mean_claim_reward={report.mean_claim_reward:+.3f} "
                f"mean_post_reward={report.mean_post_reward:+.3f}"
                + (" [terminated]" if report.terminated else "")
            )
            since = time.perf_counter()

        trainer.set_event_sink(
            lambda event: log.write(json.dumps({"ts": time.time(), **event}) + "\n"))
        since = time.perf_counter()
        trainer.train(on_epoch=on_epoch)
        trainer.set_event_sink(None)

    print(f"run artifacts written to {out}")
    return 0


def cmd_evaluate(args) -> int:
    config = resolve_config(args.config, _flags(args))
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
    )
    print(report.to_json())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_write(out / "metrics.json") as fh:
            fh.write((report.to_json() + "\n").encode("utf-8"))
    return 0


def cmd_synth(args) -> int:
    raw = read_config_file(args.config) if args.config else {}
    SynthConfig.from_dict(raw)  # the file's own values are checked first, as train's are
    synth_config = SynthConfig.from_dict({**raw, **_flags(args)})
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
    train.add_argument("--out", dest="out_dir", help="output directory for run artifacts")
    train.add_argument("--rng-seed", type=int,
                       help="rng_seed, the run's seed: the seed split, the "
                            "policy's initial parameters, sampling and decisions, "
                            "and the oracle backends")
    train.add_argument("--epsilon", type=float)
    train.add_argument("--max-epochs", type=int)
    train.add_argument("--seed-fraction", type=float)
    train.add_argument("--max-posts", type=int)
    train.add_argument("--embed-dim", type=int)
    train.add_argument("--hidden-dim", type=int)
    train.add_argument("--learning-rate", type=float)
    train.add_argument("--buffer-window", type=int)
    train.add_argument("--sd-endpoint")
    train.add_argument("--rv-endpoint")
    train.add_argument("--embed-endpoint")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score both tasks on a labeled corpus")
    ev.add_argument("--config", help="JSON run config")
    ev.add_argument("--dataset", help="evaluation corpus (JSONL)")
    ev.add_argument("--checkpoint",
                    help="a run's run_state.ckpt; its policy filters the posts")
    ev.add_argument("--out", help="directory for metrics.json")
    ev.add_argument("--rng-seed", type=int,
                    help="rng_seed, which here seeds only the oracle backends; "
                         "the policy's decisions use the config's eval_seed, "
                         "which this flag does not set")
    ev.add_argument("--sd-endpoint")
    ev.add_argument("--rv-endpoint")
    ev.add_argument("--embed-endpoint")
    ev.set_defaults(func=cmd_evaluate)

    synth = sub.add_parser("synth", help="generate a synthetic marker corpus")
    synth.add_argument("--config", help="JSON generator config")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--n-claims", type=int)
    synth.add_argument("--posts-per-claim", type=int)
    synth.add_argument("--noise-fraction", type=float, dest="noise_post_fraction")
    synth.add_argument("--rng-seed", type=int)
    synth.add_argument("--name")
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
