"""Two-level reinforcement annotation engine.

Each epoch walks the corpus claim by claim: a claim is epsilon-greedily
drawn (favoring human-labeled seeds), its thread is epsilon-greedily
sub-sampled post by post (favoring chronological order), every annotated
instance gets a retain/discard decision from the selector policy, the claim
is veracity-annotated over the retained posts, hybrid rewards are assigned,
and one policy ascent step runs over a trailing trajectory window. Training
halts early once claim-level rewards stay at +1 for a configured run length.

What a run needs to go on (policy, optimizer, reward references, contexts,
rng streams, the trajectory window, mid-epoch progress and the current
epoch's records) serializes to a single checksummed file, so a saved run
resumes bit-for-bit. Earlier epochs' annotation records and fine-tune
examples are output, handed over as each epoch ends, not kept.
"""

from __future__ import annotations

import logging
import time
import zlib
from dataclasses import asdict, dataclass
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
_EXAMPLE_LISTS = ("finetune_stance", "finetune_veracity",
                  "_epoch_ft_stance", "_epoch_ft_veracity")
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
    ):
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

        self.params = init_params(
            3 * config.embed_dim,
            config.hidden_dim,
            np.random.default_rng((config.rng_seed, 2)),
        )
        self.optimizer = OptimizerState(
            learning_rate=config.learning_rate,
            warmup_fraction=config.warmup_fraction,
            planned_updates=config.max_epochs * max(1, len(self._claims)),
        )
        self.baseline = (
            RewardBaseline(
                claim=MovingBaseline(momentum=config.baseline_momentum),
                post=MovingBaseline(momentum=config.baseline_momentum),
            )
            if config.use_baseline else None
        )
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
        # this epoch's fine-tune examples so far, sent to the backends at its end
        self._epoch_ft_stance: list[FineTuneExample] = []
        self._epoch_ft_veracity: list[FineTuneExample] = []
        self.epoch_index = 0
        self.terminated = False
        self._pretrained = False
        self._epoch_active = False
        self._epoch_sampler: ClaimSampler | None = None
        self._acc: dict | None = None
        self._event_sink: Callable[[dict], None] | None = None

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
        truth = self.truth.get(claim.claim_id)
        is_seed = claim.claim_id in self.seed_ids
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
        post_terminated = False

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
                if is_seed and truth is not None:
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
                    post_terminated = True
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

        if truth is None and not config.incremental_veracity:
            # each sub-step is scored on the retained posts up to it
            post_cosines = []
            for _post, annotation, step in annotated:
                if step.action == RETAIN:
                    retained_stance.add(annotation.distribution)
                sub = self._claim_outcome(verdict, truth, retained_stance)
                step.reward = sub.value
                post_cosines.append(sub.cosine)
        outcome = self._claim_outcome(verdict, truth, retained_stance)
        claim_step.reward = outcome.value

        if not config.incremental_veracity:
            if truth is not None:
                # terminal credit: each sub-step inherits the claim's reward
                for _post, _annotation, step in annotated:
                    step.reward = outcome.value
                post_cosines = [outcome.cosine] * len(annotated)
            for _post, _annotation, step in annotated:
                if post_tracker.observe(step.reward):
                    post_terminated = True
                    break

        if claim_step.action == RETAIN:
            self.claim_context.add(context_vec)
            for post, annotation in retained_pairs:
                self._epoch_ft_stance.append(
                    FineTuneExample(
                        task=TASK_STANCE,
                        prompt=build_stance_prompt(claim, post),
                        target=format_stance_target(
                            annotation.label, annotation.explanation
                        ),
                        label_origin="machine",
                    )
                )
            if is_seed and truth is not None:
                target = format_veracity_target(truth, verdict.explanation)
                origin = "human"
            else:
                target = format_veracity_target(verdict.label, verdict.explanation)
                origin = "machine"
            self._epoch_ft_veracity.append(
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
            post_terminated=post_terminated,
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
            return labeled_claim_reward(
                verdict.distribution, truth, self.config.centered_rewards
            )
        return unlabeled_claim_reward(
            retained_stance, verdict.label, self.references,
            self.config.centered_rewards,
        )

    # ------------------------------------------------------------------ epoch

    def _begin_epoch(self) -> None:
        self.epoch_index += 1
        seed_list = sorted(cid for cid in self._claims if cid in self.seed_ids)
        pool_list = sorted(cid for cid in self._claims if cid not in self.seed_ids)
        self._epoch_sampler = ClaimSampler(
            seed_list, pool_list, self.config.epsilon, self._sampler_rng
        )
        self._acc = {
            "claims_processed": 0,
            "claims_aborted": 0,
            "claims_retained": 0,
            "posts_annotated": 0,
            "posts_retained": 0,
            "claim_reward_sum": 0,
            "post_reward_sum": 0,
            "policy_updates": 0,
            "annotator_failures": 0,
            "post_terminations": 0,
            "wall": 0.0,
        }
        self.annotation_records = []
        self.finetune_stance = []
        self.finetune_veracity = []
        self._epoch_active = True

    def _step_claim(self) -> None:
        t0 = time.perf_counter()
        acc = self._acc
        claim_id = self._epoch_sampler.sample()
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
        reinforce_update(self.params, self.optimizer, self.buffer,
                         baseline=self.baseline)
        acc["policy_updates"] += 1
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
        return (
            self._epoch_active
            and not self.claim_tracker.fired
            and self._epoch_sampler.remaining > 0
        )

    def _finish_epoch(self) -> EpochReport:
        acc = self._acc
        self._epoch_active = False
        fine_tune(self.sd, self._epoch_ft_stance)
        fine_tune(self.rv, self._epoch_ft_veracity)
        self.finetune_stance, self._epoch_ft_stance = self._epoch_ft_stance, []
        self.finetune_veracity, self._epoch_ft_veracity = self._epoch_ft_veracity, []
        if self.claim_tracker.fired:
            self.terminated = True
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
            finetune_stance_examples=len(self.finetune_stance),
            finetune_veracity_examples=len(self.finetune_veracity),
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
        if not self._epoch_active:
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
            self._epoch_active or self.epoch_index < self.config.max_epochs
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
        else goes into the JSON manifest.
        """
        settings, policy_arrays = encode_policy(self.params, self.optimizer)
        sampler, tracker = self._epoch_sampler, self.claim_tracker
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
            "claim_tracker": {"n": tracker.n, "current_run": tracker.current_run,
                              "fired": tracker.fired},
            "action_rng": self._action_rng.bit_generator.state,
            "sampler_rng": self._sampler_rng.bit_generator.state,
            "post_counts": [len(post_rewards) for _reward, post_rewards in self.buffer],
            "reports": [r.to_dict() for r in self.reports],
            "annotation_records": [[r[k] for k in _RECORD_FIELDS]
                                   for r in self.annotation_records],
            **{key: _example_rows(getattr(self, key)) for key in _EXAMPLE_LISTS},
            "epoch_index": self.epoch_index,
            "epoch_active": self._epoch_active,
            "epoch_sampler": None if sampler is None else {
                "seeds": sampler._seeds, "pool": sampler._pool,
                "epsilon": sampler.epsilon, "last_branch": sampler.last_branch,
            },
            "acc": self._acc,
            "terminated": self.terminated,
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
        except _MALFORMED as exc:
            raise CheckpointError(f"malformed run state: {exc!r}") from None
        if fingerprint != _dataset_fingerprint(dataset):
            raise CheckpointError("run state was saved for a different dataset")
        trainer = cls(config, dataset, sd_backend, rv_backend, embedder, seeds=seeds)
        d, h = config.embed_dim, config.hidden_dim
        try:
            _array(arrays, "w1", (h, 3 * d))  # the policy must fit the config
            trainer.params, trainer.optimizer = decode_policy(state["optimizer"], arrays)
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
            tracker = trainer.claim_tracker = TerminationTracker(state["claim_tracker"]["n"])
            tracker.current_run = state["claim_tracker"]["current_run"]
            tracker.fired = state["claim_tracker"]["fired"]
            trainer._action_rng = _rng(state["action_rng"])
            trainer._sampler_rng = _rng(state["sampler_rng"])
            sampler = state["epoch_sampler"]
            if sampler is not None:
                trainer._epoch_sampler = ClaimSampler(
                    sampler["seeds"], sampler["pool"], sampler["epsilon"],
                    trainer._sampler_rng)
                trainer._epoch_sampler.last_branch = sampler["last_branch"]

            post_counts = state["post_counts"]
            n_rows = sum(1 + n for n in post_counts)
            retain, reward = _array(arrays, "step_values",
                                    (n_rows, len(_STEP_VALUES))).T
            trainer.buffer = ReplayTable.adopt(
                _array(arrays, "step_state", (n_rows, 3 * d)), retain != 0, reward,
                post_counts)
            trainer.reports = [EpochReport(**r) for r in state["reports"]]
            trainer.annotation_records = [dict(zip(_RECORD_FIELDS, row))
                                          for row in state["annotation_records"]]
            for key in _EXAMPLE_LISTS:
                setattr(trainer, key, [FineTuneExample(*e) for e in state[key]])
            trainer.epoch_index = state["epoch_index"]
            trainer._epoch_active = state["epoch_active"]
            trainer._acc = state["acc"]
            trainer.terminated = state["terminated"]
            trainer._pretrained = state["pretrained"]
            for backend, backend_state in ((sd_backend, state["backend_states"]["sd"]),
                                           (rv_backend, state["backend_states"]["rv"])):
                if backend_state is not None and hasattr(backend, "set_state"):
                    backend.set_state(backend_state)
        except _MALFORMED as exc:
            raise CheckpointError(f"malformed run state: {exc!r}") from None
        return trainer
