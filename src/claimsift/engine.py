"""Two-level reinforcement annotation engine.

Each epoch walks the corpus claim by claim: a claim is epsilon-greedily
drawn (favoring human-labeled seeds), its thread is epsilon-greedily
sub-sampled post by post (favoring chronological order), every annotated
instance gets a retain/discard decision from the selector policy, the claim
is veracity-annotated over the retained posts, hybrid rewards are assigned,
and one policy ascent step runs over a trailing trajectory window. Training
halts early once claim-level rewards stay at +1 for a configured run length.

What a run needs to go on (policy, optimizer, reward references, contexts,
rng streams, the trajectory window and the epoch in progress, if any)
serializes to a single checksummed file, so a saved run resumes
bit-for-bit. An epoch's annotation records and fine-tune examples are
output, handed over as it ends: a run state saved between epochs holds
none of them.
"""

from __future__ import annotations

import logging
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .annotators import (
    FineTuneExample,
    TASK_STANCE,
    TASK_VERACITY,
    annotate_claim,
    annotate_post,
    fine_tune,
    format_stance_target,
    format_veracity_target,
)
from .config import RunConfig
from .corpus import Claim, Dataset, mask_nonseed_labels, read_jsonl, split_seeds
from .errors import (
    AnnotatorError,
    CheckpointError,
    ConfigError,
    DatasetError,
    EmbedError,
    ParseError,
)
from .labels import VERACITIES
from .policy import (
    LEVEL_CLAIM,
    MovingBaseline,
    OptimizerState,
    PolicyParams,
    RewardBaseline,
    RETAIN,
    ReplayTable,
    Step,
    decode_policy,
    encode_policy,
    init_params,
    reinforce_update,
    sample_action,
)
from .prompts import build_stance_prompt, build_veracity_prompt, \
    build_veracity_pretrain_prompt
from .reward import (
    ReferenceStanceStats,
    StanceMean,
    labeled_claim_reward,
    unlabeled_claim_reward,
)
from .runstate import read_run_state, write_run_state
from .selection import ClaimSampler, PostSampler, TerminationTracker
from .state import ContextAccumulator, build_state, decide_post, pack_claim_text

logger = logging.getLogger(__name__)

# columns of the run state's per-step float block, one row per step
_STEP_VALUES = ("retain", "reward")
# annotation records are saved as rows of these fields, not repeating keys
_RECORD_FIELDS = ("epoch", "claim_id", "post_id", "post_text", "stance",
                  "explanation", "retained")
# an epoch's counters, summed over its claim steps into its report
_COUNTERS = ("claims_processed", "claims_aborted", "claims_retained",
             "posts_annotated", "posts_retained", "claim_reward_sum",
             "post_reward_sum", "policy_updates", "annotator_failures",
             "post_terminations")
# what a run state that does not hold together raises while it is decoded
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, ConfigError)


@dataclass
class Trajectory:
    """What one claim step hands to the update and the decision events."""

    claim_step: Step
    post_steps: tuple[Step, ...]
    reward_branch: str
    claim_cosine: float
    post_cosines: tuple[float, ...]
    post_terminated: bool = False


@dataclass
class _Epoch:
    """The epoch in progress: its claim sampler, its counters (and the wall
    time of its claim steps) and the fine-tune examples kept so far, which go
    to the backends as it ends."""

    sampler: ClaimSampler
    counts: dict = field(default_factory=lambda: {
        **dict.fromkeys(_COUNTERS, 0), "wall": 0.0})
    stance: list[FineTuneExample] = field(default_factory=list)
    veracity: list[FineTuneExample] = field(default_factory=list)


@dataclass
class EpochReport:
    epoch: int
    claims_processed: int
    claims_aborted: int
    claims_retained: int
    posts_annotated: int
    posts_retained: int
    posts_discarded: int
    mean_claim_reward: float
    mean_post_reward: float
    policy_updates: int
    annotator_failures: int
    finetune_stance_examples: int
    finetune_veracity_examples: int
    post_terminations: int
    terminated: bool
    wall_time_s: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def _dataset_fingerprint(dataset: Dataset) -> tuple[int, int, int]:
    ids = ",".join(sorted(c.claim_id for c in dataset.claims))
    return (
        len(dataset.claims),
        dataset.n_posts(),
        zlib.crc32(ids.encode("utf-8")) & 0xFFFFFFFF,
    )


def _load_prompt_target_jsonl(path: str | Path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"sd_pretrain_path: file not found: {path}")
    records = []
    for line_no, record in read_jsonl(path):
        if "prompt" not in record or "target" not in record:
            raise DatasetError("warm-up record needs 'prompt' and 'target'", line=line_no)
        records.append({"prompt": str(record["prompt"]), "target": str(record["target"])})
    return records


def _rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def _array(arrays: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The named array, checked for shape."""
    arr = arrays[name]
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _example_rows(examples: list[FineTuneExample]) -> list[tuple]:
    return [(e.task, e.prompt, e.target, e.label_origin) for e in examples]


class Trainer:
    """Drives selection, annotation, rewards, and policy updates over a corpus."""

    def __init__(
        self,
        config: RunConfig,
        dataset: Dataset,
        sd_backend,
        rv_backend,
        embedder,
        seeds: frozenset[str] | None = None,
        *,
        _policy: tuple[PolicyParams, OptimizerState] | None = None,
    ):
        # `_policy` is from_run_state's decoded policy, which spares a resume
        # the initial parameter draw; the draw's rng is a stream of its own.
        config.validate()
        if getattr(embedder, "d", None) != config.embed_dim:
            raise ConfigError(
                f"embed_dim: embedder width {getattr(embedder, 'd', None)} "
                f"does not match configured {config.embed_dim}"
            )
        self.config = config
        self.sd = sd_backend
        self.rv = rv_backend
        self.embedder = embedder
        self._fingerprint = _dataset_fingerprint(dataset)
        if seeds is None:
            seeds, _pool = split_seeds(
                dataset,
                config.seed_fraction,
                np.random.default_rng((config.rng_seed, 0)),
            )
        self.seed_ids = frozenset(seeds)
        self.truth = {
            c.claim_id: c.veracity
            for c in dataset.claims
            if c.claim_id in self.seed_ids and c.veracity is not None
        }
        masked = mask_nonseed_labels(dataset, self.seed_ids)
        self._claims = {c.claim_id: c for c in masked.claims}
        self._claim_vecs: dict[str, np.ndarray] = {}

        if _policy is None:
            _policy = (
                init_params(3 * config.embed_dim, config.hidden_dim,
                            np.random.default_rng((config.rng_seed, 2))),
                OptimizerState(
                    learning_rate=config.learning_rate,
                    warmup_fraction=config.warmup_fraction,
                    planned_updates=config.max_epochs * max(1, len(self._claims)),
                ),
            )
        self.params, self.optimizer = _policy
        self.baseline = RewardBaseline() if config.use_baseline else None
        self.references = ReferenceStanceStats()
        self.claim_context = ContextAccumulator(config.embed_dim)
        self.claim_tracker = TerminationTracker(config.n_termination)
        self._action_rng = np.random.default_rng((config.rng_seed, 1))
        self._sampler_rng = np.random.default_rng((config.rng_seed, 3))

        # the trajectory window the update replays, as rows holding its states
        self.buffer = ReplayTable(np.empty((0, 3 * config.embed_dim)))
        self.reports: list[EpochReport] = []
        # the current epoch's records and, once it has ended, its fine-tune examples
        self.annotation_records: list[dict] = []
        self.finetune_stance: list[FineTuneExample] = []
        self.finetune_veracity: list[FineTuneExample] = []
        self.epoch_index = 0
        self._pretrained = False
        self._epoch: _Epoch | None = None  # None between epochs
        self._event_sink: Callable[[dict], None] | None = None

    @property
    def terminated(self) -> bool:
        """Whether early termination has ended training: the claim-level
        tracker fired, and the epoch it fired in has ended."""
        return self.claim_tracker.fired and self._epoch is None

    # ------------------------------------------------------------------ setup

    def set_event_sink(self, sink: Callable[[dict], None] | None) -> None:
        """Receive one dict per decision, suitable for JSONL run logs."""
        self._event_sink = sink

    def _emit(self, **fields) -> None:
        if self._event_sink is not None:
            event = {"ts": time.time(), "epoch": self.epoch_index}
            event.update(fields)
            self._event_sink(event)

    def _claim_embedding(self, claim: Claim) -> np.ndarray:
        vec = self._claim_vecs.get(claim.claim_id)
        if vec is None:
            vec = self.embedder.embed(claim.text)
            self._claim_vecs[claim.claim_id] = vec
        return vec

    def pretrain(self) -> None:
        """One-time warm-up requests before the first epoch.

        HTTP stance backends receive the configured prompt/target corpus;
        HTTP veracity backends receive the seed claims with their trusted
        labels over raw threads. Oracle backends skip with a logged notice.
        """
        if self._pretrained:
            return
        if self.config.sd_backend.kind == "http":
            if not self.config.sd_pretrain_path:
                raise ConfigError(
                    "sd_pretrain_path: required for stance warm-up with an "
                    "http backend"
                )
            records = _load_prompt_target_jsonl(self.config.sd_pretrain_path)
            self.sd.finetune(TASK_STANCE, records, origin="pretrain")
        else:
            logger.info("stance warm-up skipped: oracle backend")
        if self.config.rv_backend.kind == "http":
            examples = []
            for claim_id in sorted(self.seed_ids):
                claim = self._claims[claim_id]
                truth = self.truth.get(claim_id)
                if truth is None:
                    continue
                examples.append(
                    {
                        "prompt": build_veracity_pretrain_prompt(claim),
                        "target": format_veracity_target(truth, "seed annotation."),
                    }
                )
            if not examples:
                raise ConfigError(
                    "seed_fraction: no seed claims available for veracity warm-up "
                    "with an http backend"
                )
            self.rv.finetune(TASK_VERACITY, examples, origin="pretrain")
        else:
            logger.info("veracity warm-up skipped: oracle backend")
        self._pretrained = True

    # ------------------------------------------------------------- claim step

    def _process_claim(self, claim: Claim) -> tuple[Trajectory | None, int]:
        config = self.config
        failures = 0
        truth = self.truth.get(claim.claim_id)  # a seed claim's trusted label
        try:
            claim_vec = self._claim_embedding(claim)
        except EmbedError as exc:
            logger.warning("aborting claim %s: claim embedding failed: %s",
                           claim.claim_id, exc)
            return None, 1
        post_context = ContextAccumulator(config.embed_dim)
        sampler = PostSampler(len(claim.posts), config.epsilon, self._sampler_rng)
        post_tracker = TerminationTracker(config.n_termination_posts)
        cap = min(len(claim.posts), config.max_posts)

        annotated: list[tuple] = []  # (post, annotation, step)
        retained_pairs: list[tuple] = []  # (post, annotation)
        # The retained posts' stance distributions for every unlabeled reward
        # of this claim: added as each post is retained with incremental
        # veracity, else while the prefix rewards are assigned after the verdict.
        retained_stance = StanceMean()
        post_cosines: list[float] = []

        while len(annotated) < cap and sampler.remaining > 0:
            index = sampler.sample()
            post = claim.posts[index]
            try:
                annotation = annotate_post(self.sd, claim, post)
                step = decide_post(self.params, self._action_rng, self.embedder,
                                   claim_vec, post_context, post.text, annotation)
            except (ParseError, AnnotatorError, EmbedError) as exc:
                failures += 1
                logger.warning("skipping post %s: %s", post.post_id, exc)
                continue
            if step.action == RETAIN:
                retained_pairs.append((post, annotation))
                if truth is not None:
                    self.references.update(truth, annotation.distribution)
                if config.incremental_veracity:
                    retained_stance.add(annotation.distribution)
            annotated.append((post, annotation, step))

            if config.incremental_veracity:
                outcome = self._incremental_outcome(
                    claim, retained_pairs, retained_stance, truth)
                if outcome is None:
                    failures += 1
                    step.reward = 0
                    post_cosines.append(0.0)
                else:
                    step.reward = outcome.value
                    post_cosines.append(outcome.cosine)
                if post_tracker.observe(step.reward):
                    break

        try:
            verdict = annotate_claim(self.rv, claim, retained_pairs)
            claim_state = build_state(
                claim_vec,
                self.claim_context.mean(),
                self.embedder.embed(verdict.explanation),
            )
            claim_step = sample_action(
                self.params, claim_state, self._action_rng, LEVEL_CLAIM
            )
            if claim_step.action == RETAIN:
                context_vec = self.embedder.embed(
                    pack_claim_text(claim.text, verdict.label, verdict.explanation)
                )
        except (ParseError, AnnotatorError, EmbedError) as exc:
            failures += 1
            logger.warning(
                "aborting claim %s: veracity annotation failed: %s",
                claim.claim_id, exc,
            )
            return None, failures

        if not config.incremental_veracity:
            # each sub-step is scored on the retained posts up to it; a labeled
            # claim's reward ignores them, so its sub-steps get the claim's
            for _post, annotation, step in annotated:
                if step.action == RETAIN:
                    retained_stance.add(annotation.distribution)
                sub = self._claim_outcome(verdict, truth, retained_stance)
                step.reward = sub.value
                post_cosines.append(sub.cosine)
                post_tracker.observe(step.reward)
        outcome = self._claim_outcome(verdict, truth, retained_stance)
        claim_step.reward = outcome.value

        epoch = self._epoch
        if claim_step.action == RETAIN:
            self.claim_context.add(context_vec)
            for post, annotation in retained_pairs:
                epoch.stance.append(
                    FineTuneExample(
                        task=TASK_STANCE,
                        prompt=build_stance_prompt(claim, post),
                        target=format_stance_target(
                            annotation.label, annotation.explanation
                        ),
                        label_origin="machine",
                    )
                )
            if truth is not None:
                target = format_veracity_target(truth, verdict.explanation)
                origin = "human"
            else:
                target = format_veracity_target(verdict.label, verdict.explanation)
                origin = "machine"
            epoch.veracity.append(
                FineTuneExample(
                    task=TASK_VERACITY,
                    prompt=build_veracity_prompt(
                        claim, [(p, a.label) for p, a in retained_pairs]
                    ),
                    target=target,
                    label_origin=origin,
                )
            )

        retained_ids = {post.post_id for post, _annotation in retained_pairs}
        for post, annotation, _step in annotated:
            self.annotation_records.append(
                {
                    "epoch": self.epoch_index,
                    "claim_id": claim.claim_id,
                    "post_id": post.post_id,
                    "post_text": post.text,
                    "stance": annotation.label,
                    "explanation": annotation.explanation,
                    "retained": post.post_id in retained_ids,
                }
            )

        trajectory = Trajectory(
            claim_step=claim_step,
            post_steps=tuple(step for _p, _a, step in annotated),
            reward_branch=outcome.branch,
            claim_cosine=outcome.cosine,
            post_cosines=tuple(post_cosines),
            post_terminated=post_tracker.fired,
        )
        return trajectory, failures

    def _incremental_outcome(self, claim, retained_pairs, retained_stance, truth):
        try:
            verdict = annotate_claim(self.rv, claim, retained_pairs)
        except (ParseError, AnnotatorError) as exc:
            logger.warning(
                "incremental veracity call failed on %s: %s", claim.claim_id, exc
            )
            return None
        return self._claim_outcome(verdict, truth, retained_stance)

    def _claim_outcome(self, verdict, truth, retained_stance):
        """A verdict's reward: against the truth on a labeled claim, else
        against the mean stance of the retained posts."""
        if truth is not None:
            return labeled_claim_reward(verdict.distribution, truth)
        return unlabeled_claim_reward(retained_stance, verdict.label, self.references)

    # ------------------------------------------------------------------ epoch

    def _begin_epoch(self) -> None:
        self.epoch_index += 1
        self._epoch = _Epoch(ClaimSampler(
            [cid for cid in self._claims if cid in self.seed_ids],
            [cid for cid in self._claims if cid not in self.seed_ids],
            self.config.epsilon, self._sampler_rng,
        ))
        self.annotation_records = []
        self.finetune_stance = []
        self.finetune_veracity = []

    def _step_claim(self) -> None:
        t0 = time.perf_counter()
        acc = self._epoch.counts
        claim_id = self._epoch.sampler.sample()
        claim = self._claims[claim_id]
        trajectory, failures = self._process_claim(claim)
        acc["annotator_failures"] += failures
        if trajectory is None:
            acc["claims_aborted"] += 1
            acc["wall"] += time.perf_counter() - t0
            return
        self.buffer.append(trajectory.claim_step, trajectory.post_steps)
        if self.config.buffer_window is not None:
            # the update reads only the trailing window, so nothing older is kept
            del self.buffer[:-self.config.buffer_window]
        self.claim_tracker.observe(trajectory.claim_step.reward)
        updates = self.optimizer.step
        reinforce_update(self.params, self.optimizer, self.buffer,
                         baseline=self.baseline)
        # an update whose gradient was not finite is skipped, not counted
        acc["policy_updates"] += self.optimizer.step - updates
        acc["claims_processed"] += 1
        acc["claims_retained"] += int(trajectory.claim_step.action == RETAIN)
        acc["posts_annotated"] += len(trajectory.post_steps)
        acc["posts_retained"] += sum(
            1 for s in trajectory.post_steps if s.action == RETAIN
        )
        acc["claim_reward_sum"] += trajectory.claim_step.reward
        acc["post_reward_sum"] += sum(s.reward for s in trajectory.post_steps)
        acc["post_terminations"] += int(trajectory.post_terminated)
        for step, cosine in (*zip(trajectory.post_steps, trajectory.post_cosines),
                             (trajectory.claim_step, trajectory.claim_cosine)):
            self._emit(
                claim_id=claim_id, level=step.level, action=step.action,
                reward=step.reward, cosine=cosine, p_retain=step.p_retain,
            )
        acc["wall"] += time.perf_counter() - t0

    def _epoch_has_work(self) -> bool:
        return not self.claim_tracker.fired and self._epoch.sampler.remaining > 0

    def _finish_epoch(self) -> EpochReport:
        epoch, self._epoch = self._epoch, None
        fine_tune(self.sd, epoch.stance)
        fine_tune(self.rv, epoch.veracity)
        self.finetune_stance, self.finetune_veracity = epoch.stance, epoch.veracity
        acc = epoch.counts
        posts = acc["posts_annotated"]
        claims = acc["claims_processed"]
        report = EpochReport(
            epoch=self.epoch_index,
            claims_processed=claims,
            claims_aborted=acc["claims_aborted"],
            claims_retained=acc["claims_retained"],
            posts_annotated=posts,
            posts_retained=acc["posts_retained"],
            posts_discarded=posts - acc["posts_retained"],
            mean_claim_reward=(acc["claim_reward_sum"] / claims) if claims else 0.0,
            mean_post_reward=(acc["post_reward_sum"] / posts) if posts else 0.0,
            policy_updates=acc["policy_updates"],
            annotator_failures=acc["annotator_failures"],
            finetune_stance_examples=len(epoch.stance),
            finetune_veracity_examples=len(epoch.veracity),
            post_terminations=acc["post_terminations"],
            terminated=self.terminated,
            wall_time_s=acc["wall"],
        )
        self.reports.append(report)
        return report

    def run_epoch(self, limit: int | None = None) -> EpochReport | None:
        """Run one epoch, or up to `limit` claim steps of it.

        Returns the EpochReport when the epoch completes, or None when
        paused mid-epoch by `limit` (resume by calling run_epoch again).
        """
        if self.terminated:
            raise ConfigError("training already terminated; nothing to run")
        if self._epoch is None:
            self._begin_epoch()
        steps = 0
        while self._epoch_has_work() and (limit is None or steps < limit):
            self._step_claim()
            steps += 1
        if self._epoch_has_work():
            return None
        return self._finish_epoch()

    def train(
        self, on_epoch: Callable[[EpochReport], None] | None = None
    ) -> list[EpochReport]:
        """Warm-up once, then epochs until max_epochs or early termination.

        `on_epoch`, when given, receives each finished epoch's report, while
        `annotation_records` and the fine-tune lists still hold that epoch's
        output; the next epoch empties them.
        """
        self.pretrain()
        while not self.terminated and (
            self._epoch is not None or self.epoch_index < self.config.max_epochs
        ):
            report = self.run_epoch()
            if on_epoch is not None:
                on_epoch(report)
        return self.reports

    # ------------------------------------------------------------ persistence

    def save_run_state(self, path: str | Path) -> None:
        """Atomically write what resume needs (see claimsift.runstate).

        Numbers that come in arrays (parameters, optimizer moments, sums,
        step states and per-step values) are stored as raw arrays; all
        else goes into the JSON manifest. The epoch in progress, `null`
        between epochs, holds its records and fine-tune examples so far.
        """
        settings, policy_arrays = encode_policy(self.params, self.optimizer)
        epoch = self._epoch
        state = {
            "config": self.config.to_dict(),
            "fingerprint": list(self._fingerprint),
            "seed_ids": sorted(self.seed_ids),
            "optimizer": settings,
            "baseline": None if self.baseline is None else [
                asdict(self.baseline.claim), asdict(self.baseline.post)
            ],
            "reference_counts": [self.references.count(v) for v in VERACITIES],
            "claim_context_count": self.claim_context.count,
            "claim_tracker": {"current_run": self.claim_tracker.current_run,
                              "fired": self.claim_tracker.fired},
            "action_rng": self._action_rng.bit_generator.state,
            "sampler_rng": self._sampler_rng.bit_generator.state,
            "post_counts": [len(post_rewards) for _reward, post_rewards in self.buffer],
            "reports": [r.to_dict() for r in self.reports],
            "epoch_index": self.epoch_index,
            "epoch": None if epoch is None else {
                "seeds": epoch.sampler._seeds, "pool": epoch.sampler._pool,
                "last_branch": epoch.sampler.last_branch,
                "counts": epoch.counts,
                "records": [[r[k] for k in _RECORD_FIELDS]
                            for r in self.annotation_records],
                "stance": _example_rows(epoch.stance),
                "veracity": _example_rows(epoch.veracity),
            },
            "pretrained": self._pretrained,
            "backend_states": {
                "sd": self.sd.get_state() if hasattr(self.sd, "get_state") else None,
                "rv": self.rv.get_state() if hasattr(self.rv, "get_state") else None,
            },
        }
        arrays = {
            **policy_arrays,
            "reference_sums": np.stack(
                [self.references._sums[v] for v in VERACITIES]
            ),
            "claim_context_sum": self.claim_context._sum,
            "step_state": self.buffer.states,
            "step_values": np.column_stack((self.buffer.retain, self.buffer.reward)),
        }
        write_run_state(path, state, arrays)

    @classmethod
    def from_run_state(
        cls, path: str | Path, dataset: Dataset, sd_backend, rv_backend, embedder
    ) -> "Trainer":
        """Rebuild a Trainer from a file `save_run_state` wrote, mid-epoch or
        not; the backends get their saved rng states back. A damaged or
        malformed file raises CheckpointError."""
        state, arrays = read_run_state(path)
        try:
            config = RunConfig.from_dict(state["config"])
            fingerprint, seeds = tuple(state["fingerprint"]), frozenset(state["seed_ids"])
            d, h = config.embed_dim, config.hidden_dim
            _array(arrays, "w1", (h, 3 * d))  # the policy must fit the config
            policy = decode_policy(state["optimizer"], arrays)
        except _MALFORMED as exc:
            raise CheckpointError(f"malformed run state: {exc!r}") from None
        if fingerprint != _dataset_fingerprint(dataset):
            raise CheckpointError("run state was saved for a different dataset")
        trainer = cls(config, dataset, sd_backend, rv_backend, embedder, seeds=seeds,
                      _policy=policy)
        try:
            baseline = state["baseline"]
            if baseline is not None:
                claim, post = baseline
                baseline = RewardBaseline(claim=MovingBaseline(**claim),
                                          post=MovingBaseline(**post))
            trainer.baseline = baseline
            sums = _array(arrays, "reference_sums", (len(VERACITIES), 4))
            trainer.references._sums = dict(zip(VERACITIES, sums))
            trainer.references._counts = dict(zip(VERACITIES, state["reference_counts"]))
            trainer.claim_context._sum = _array(arrays, "claim_context_sum", (d,))
            trainer.claim_context.count = state["claim_context_count"]
            trainer.claim_tracker.current_run = state["claim_tracker"]["current_run"]
            trainer.claim_tracker.fired = state["claim_tracker"]["fired"]
            trainer._action_rng = _rng(state["action_rng"])
            trainer._sampler_rng = _rng(state["sampler_rng"])
            epoch = state["epoch"]
            if epoch is not None:
                sampler = ClaimSampler(epoch["seeds"], epoch["pool"], config.epsilon,
                                       trainer._sampler_rng)
                sampler.last_branch = epoch["last_branch"]
                trainer._epoch = _Epoch(
                    sampler, {k: epoch["counts"][k] for k in (*_COUNTERS, "wall")},
                    [FineTuneExample(*e) for e in epoch["stance"]],
                    [FineTuneExample(*e) for e in epoch["veracity"]])
                trainer.annotation_records = [dict(zip(_RECORD_FIELDS, row))
                                              for row in epoch["records"]]

            post_counts = state["post_counts"]
            n_rows = sum(1 + n for n in post_counts)
            retain, reward = _array(arrays, "step_values",
                                    (n_rows, len(_STEP_VALUES))).T
            trainer.buffer = ReplayTable.adopt(
                _array(arrays, "step_state", (n_rows, 3 * d)), retain != 0, reward,
                post_counts)
            trainer.reports = [EpochReport(**r) for r in state["reports"]]
            trainer.epoch_index = state["epoch_index"]
            trainer._pretrained = state["pretrained"]
            for backend, backend_state in ((sd_backend, state["backend_states"]["sd"]),
                                           (rv_backend, state["backend_states"]["rv"])):
                if backend_state is not None and hasattr(backend, "set_state"):
                    backend.set_state(backend_state)
        except _MALFORMED as exc:
            raise CheckpointError(f"malformed run state: {exc!r}") from None
        return trainer
