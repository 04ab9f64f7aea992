"""The benchmark's workloads: corpora, run configuration and backends.

Every input is made from the workload seed. One round is one complete,
fixed-size training run plus its evaluation and checkpoint work. A workload
with several sub-runs trains that many independent runs, each from its own
seed, so a run's figures average over what the trained policies came to
keep. A run goes through its sub-runs in turn, then again until its time is
up, so the work per round does not depend on how fast the machine is. Why
each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SKEWED_STANCE_MIX = tuple(
    tuple(0.85 if col == modal else 0.05 for col in range(4))
    for modal in (3, 0, 1, 2)  # N->Comment, T->Support, F->Deny, U->Question
)


@dataclass(frozen=True)
class CorpusSpec:
    n_claims: int
    posts_per_claim: int
    noise_post_fraction: float = 0.3
    skewed: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    train: CorpusSpec
    heldout: CorpusSpec
    config: dict = field(default_factory=dict)
    http: bool = False
    # Mid-epoch save after this many claim steps; the resume check replays
    # RESUME_STEPS more steps from it and compares with the uninterrupted run.
    mid_save_step: int = 0
    # Timed repeats per round; a sub-run's rounds are identical, so every
    # repeat gives the same outputs.
    eval_repeats: int = 1
    save_repeats: int = 3
    resume_repeats: int = 1
    learning_report: bool = False  # held-out retain gap, reported
    # Independent training runs per run of the benchmark; see subrun_seeds.
    subruns: int = 1
    # A worker process runs one pass through the sub-runs, or only one round
    # when this is set: in one process that ran every round, the saves and
    # resumes of the 25 MiB full_buffer run state took from 35 to 100 ms
    # depending on what earlier rounds had left in the allocator.
    process_per_round: bool = False


def subrun_seeds(workload: Workload, seed: int) -> list[int]:
    """The seeds of a run's sub-runs; a single sub-run keeps the run's seed."""
    return [seed * workload.subruns + j for j in range(workload.subruns)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="incremental",
            train=CorpusSpec(50, 20, skewed=True),
            heldout=CorpusSpec(60, 20, skewed=True),
            config=dict(
                embed_dim=64, hidden_dim=32, learning_rate=3e-3, buffer_window=1,
                max_epochs=2, epsilon=0.3, use_baseline=True,
                incremental_veracity=True,
            ),
            mid_save_step=75,
            save_repeats=5,
            resume_repeats=3,
            learning_report=True,
            subruns=8,
        ),
        Workload(
            name="full_buffer",
            train=CorpusSpec(40, 12),
            heldout=CorpusSpec(80, 12),
            config=dict(max_epochs=2),
            mid_save_step=60,
            eval_repeats=3,
            save_repeats=10,
            resume_repeats=3,
            process_per_round=True,
        ),
        Workload(
            name="http_latency",
            train=CorpusSpec(10, 10),
            heldout=CorpusSpec(6, 10),
            config=dict(max_epochs=2, max_posts=6),
            http=True,
            mid_save_step=12,
            eval_repeats=2,
            save_repeats=20,
            resume_repeats=10,
            subruns=5,
        ),
    )
}

# Offsets keep the corpora of one seed apart from each other.
TRAIN_SEED, HELDOUT_SEED, WARMUP_SEED = 10_000, 20_000, 30_000
ORACLE_ACCURACY = 0.9
RESUME_STEPS = 3
HTTP_DELAY_MS = 20.0
HTTP_MAX_IN_FLIGHT = 2
WARMUP_CLAIMS, WARMUP_POSTS = 8, 6
