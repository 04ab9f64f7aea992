"""One fresh process of a benchmark run.

--role setup   times set-up once (import claimsift, load the corpus, build
               the backends, warm up, construct a Trainer for the first
               sub-run), then, given --resume, resumes each sub-run's final
               run state once, for the check that a fresh process restores
               the parameters.
--role rounds  times set-up the same way for the first of its rounds, then
               runs rounds --first-round to --first-round + --rounds - 1 of
               the run, going through the sub-runs in turn. With --trace 1
               each sub-run has an untraced round and then a traced one.

The result is written as JSON to --out. run.py starts these processes; see
README.md for how to run the benchmark.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before claimsift is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import urllib.request  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

from claimsift import corpus, metrics  # noqa: E402
from claimsift.annotators import BackendConfig, HttpAnnotator, OracleAnnotator  # noqa: E402
from claimsift.config import RunConfig  # noqa: E402
from claimsift.engine import Trainer  # noqa: E402
from claimsift.prompts import build_stance_prompt  # noqa: E402
from claimsift.state import HashedEmbedder  # noqa: E402

import checks  # noqa: E402
from tracer import CountingBackend, TracedEmbedder, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    HTTP_MAX_IN_FLIGHT, ORACLE_ACCURACY, RESUME_STEPS, WORKLOADS, subrun_seeds,
)

class Run:
    """Inputs shared by every round of one worker process."""

    def __init__(self, workload, seed: int, run_dir, endpoint=None):
        self.workload = workload
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.endpoint = endpoint
        self.backends: list[CountingBackend] = []
        self.truth: dict[str, str | None] = {}
        # Held-out retain gaps, computed in its first round: its rounds are identical.
        self.learning: dict | None = None

    def load_truth(self) -> None:
        """Gold veracity of the training claims, read apart from the program."""
        for line in (self.run_dir / "train.jsonl").read_text().splitlines():
            record = json.loads(line)
            self.truth[record["claim_id"]] = record["veracity"]

    def config(self) -> RunConfig:
        w = self.workload
        extra = {}
        if w.http:
            backend = BackendConfig(
                kind="http", endpoint=self.endpoint, max_in_flight=HTTP_MAX_IN_FLIGHT,
            )
            extra = dict(
                sd_backend=backend, rv_backend=backend,
                sd_pretrain_path=str(self.run_dir / "warmup.jsonl"),
            )
        return RunConfig(rng_seed=self.seed, **w.config, **extra)

    def backend(self, config: RunConfig, stream: int, tracer=None) -> CountingBackend:
        if self.workload.http:
            inner = HttpAnnotator(config.sd_backend)
        else:
            inner = OracleAnnotator(
                accuracy=ORACLE_ACCURACY,
                rng=np.random.default_rng((self.seed, stream)),
            )
        wrapped = CountingBackend(inner, tracer)
        self.backends.append(wrapped)
        return wrapped

    def embedder(self, config: RunConfig, tracer=None):
        embedder = HashedEmbedder(config.embed_dim)
        return TracedEmbedder(embedder, tracer) if tracer is not None else embedder

    def server_requests(self) -> int:
        if not self.workload.http:
            return 0
        with urllib.request.urlopen(self.endpoint + "/stats", timeout=10) as resp:
            return sum(json.loads(resp.read())["requests"].values())


@contextmanager
def isolated():
    """Keep the objects alive so far out of the garbage collector's scans.

    `claimsift evaluate` runs in a process of its own, and a resume follows a
    killed run in a new process; without this, their time would depend on
    how many objects the benchmark and the finished training left on the
    heap. Saves are not isolated: `claimsift train` saves in the training
    process, right after training.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def build(run: Run, tracer=None) -> dict:
    """Load the corpus, build backends and a Trainer ready for its first claim."""
    config = run.config()
    dataset = corpus.load_dataset(run.run_dir / "train.jsonl")
    sd = run.backend(config, 10, tracer)
    rv = run.backend(config, 11, tracer)
    embedder = run.embedder(config, tracer)
    trainer = Trainer(config, dataset, sd, rv, embedder)
    trainer.pretrain()
    return {"config": config, "dataset": dataset, "sd": sd, "rv": rv,
            "embedder": embedder, "trainer": trainer}


def _params(obj) -> tuple:
    return (obj.params.w1.copy(), obj.params.w2.copy())


def params_sha256(params) -> str:
    return hashlib.sha256(params[0].tobytes() + params[1].tobytes()).hexdigest()


def threads_by_prompt(dataset) -> dict:
    """Claim id -> (claim, {stance prompt: post}), to tell which post a stance
    call was about."""
    return {
        claim.claim_id: (claim, {build_stance_prompt(claim, p): p for p in claim.posts})
        for claim in dataset.claims
    }


def _step_record(run: Run, built: dict, threads: dict, events) -> dict | None:
    """What one claim step produced, for the checks, or None if it aborted.

    Read from what the trainer shows outside: its decision events, one per
    post and one for the claim, and the replies its backends gave (each
    stance reply, and the last veracity reply, which is the claim's verdict).
    The backends' reply lists are emptied for the next step.
    """
    sd, rv = built["sd"], built["rv"]
    stance, verdicts = sd.completions, rv.completions
    sd.completions, rv.completions = [], []
    claim_events = [e for e in events if e["level"] == "claim"]
    if not claim_events:
        return None
    claim_id = claim_events[-1]["claim_id"]
    claim, posts = threads[claim_id]
    post_events = [e for e in events if e["level"] == "post"]
    annotations = []
    for prompt, reply in stance:
        post = posts.get(prompt)
        where = (post.post_id, post.text) if post is not None else (None, prompt)
        annotations.append((*where, reply.label, reply.explanation))
    return {
        "claim_id": claim_id,
        "claim_text": claim.text,
        "seed": claim_id in built["trainer"].seed_ids,
        "truth": run.truth[claim_id],
        "verdict": [float(x) for x in verdicts[-1][1].distribution] if verdicts else None,
        "claim_reward": claim_events[-1]["reward"],
        "claim_retained": claim_events[-1]["action"] == "retain",
        "post_rewards": [e["reward"] for e in post_events],
        "post_retained": [e["action"] == "retain" for e in post_events],
        "annotations": annotations,
    }


def heldout_retain_logits(run: Run, params, heldout, embed_dim: int):
    """Retain log-odds of held-out posts, walking each thread as evaluation does.

    Labels come from a separately seeded oracle; the state and the forward
    pass are assembled here, not by the program.
    """
    sd = OracleAnnotator(accuracy=ORACLE_ACCURACY,
                         rng=np.random.default_rng((run.seed, 30)))
    rng = np.random.default_rng((run.seed, 31))
    embedder = HashedEmbedder(embed_dim)
    w1, w2 = params
    signal, noise = [], []
    for claim in heldout.claims:
        claim_vec = embedder.embed(claim.text)
        context, kept = np.zeros(embed_dim), 0
        for post in claim.posts:
            reply = sd.complete("stance", f"{claim.text} {post.text}")
            state = np.concatenate([
                claim_vec, context / kept if kept else context,
                embedder.embed(reply.explanation),
            ])
            z = float(checks.retain_logits(w1, w2, state[None, :])[0])
            (noise if checks.stance_marker(post.text) is None else signal).append(z)
            if rng.random() < 0.5 * (1.0 + math.tanh(0.5 * z)):  # sigmoid(z)
                context += embedder.embed(
                    f"{post.text} {reply.label} {reply.explanation}"
                )
                kept += 1
    return signal, noise


def run_round(run: Run, built: dict, tracer: Tracer | None) -> tuple[dict, dict]:
    """Train, evaluate, save and resume once.

    Returns the round's measurements, with the failures of every check, and
    the raw outputs the checks read.
    """
    w = run.workload
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    config, dataset, trainer = built["config"], built["dataset"], built["trainer"]
    threads = threads_by_prompt(dataset)
    built["sd"].record()
    built["rv"].record()
    events: list[dict] = []
    trainer.set_event_sink(events.append)
    log = hashlib.sha256()
    requests_before = run.server_requests() if tracer is not None else 0
    mid_state = run.run_dir / "mid.state"

    initial_params = _params(trainer)
    step_times, steps, reports = [], [], []
    saves, mid_params = [], None
    for _epoch in range(config.max_epochs):
        report = None
        while report is None:
            with span("engine.claim_step"):
                t = time.perf_counter()
                report = trainer.run_epoch(limit=1)
                step_times.append(time.perf_counter() - t)
            for event in events:
                line = json.dumps({k: v for k, v in event.items() if k != "ts"},
                                  sort_keys=True)
                log.update(line.encode("utf-8") + b"\n")
            record = _step_record(run, built, threads, events)
            events.clear()
            if record is not None:
                steps.append(record)
            if len(step_times) == w.mid_save_step:
                with span("engine.save"):
                    trainer.save_run_state(mid_state)
            elif len(step_times) == w.mid_save_step + RESUME_STEPS:
                mid_params = _params(trainer)
        reports.append(report)
        if trainer.terminated:
            break
    trainer.set_event_sink(None)

    # Final saves right after training, in the training process, as
    # `claimsift train` makes them. Each save writes a new file; the files
    # are removed outside the timed region.
    final_params = _params(trainer)
    final_states = [run.run_dir / f"final-{i}.state" for i in range(w.save_repeats)]
    for path in final_states:
        path.unlink(missing_ok=True)
        with span("engine.save"):
            t = time.perf_counter()
            trainer.save_run_state(path)
            saves.append(time.perf_counter() - t)
    for path in final_states[1:]:
        path.unlink()
    state_bytes = final_states[0].stat().st_size
    # The process's peak so far: that of one fresh training run and its
    # saves, as `claimsift train` makes them; evaluation and resumes run in
    # processes of their own in real use.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    heldout = corpus.load_dataset(run.run_dir / "heldout.jsonl")
    stance_before = tracer.calls.get("annotators.annotate_post", 0) if tracer else 0
    eval_times, eval_reports = [], []
    for _ in range(w.eval_repeats):
        eval_sd = run.backend(config, 20, tracer)
        eval_rv = run.backend(config, 21, tracer)
        with isolated():
            t = time.perf_counter()
            eval_reports.append(metrics.evaluate(
                heldout, eval_sd, eval_rv, embedder=built["embedder"],
                params=trainer.params, rng_seed=config.eval_seed,
            ).to_dict())
            eval_times.append(time.perf_counter() - t)
    eval_stance_calls = (
        tracer.calls.get("annotators.annotate_post", 0) - stance_before if tracer else 0
    )

    # One resume more than is timed: the first in a process takes the page
    # faults of a heap for a state this size, which the later ones reuse.
    resumes = []
    for _ in range(1 + w.resume_repeats):
        sd, rv = run.backend(config, 0, tracer), run.backend(config, 0, tracer)
        embedder = run.embedder(config, tracer)
        with isolated(), span("engine.load"):
            t = time.perf_counter()
            resumed = Trainer.from_run_state(final_states[0], dataset, sd, rv, embedder)
            resumes.append(time.perf_counter() - t)
        resumed_params = _params(resumed)
        del resumed
    requests_after = run.server_requests() if tracer is not None else 0
    if tracer is not None:
        tracer.uninstall()

    # Untraced from here: the resume replay and the checks.
    replay = Trainer.from_run_state(
        mid_state, dataset, run.backend(config, 0), run.backend(config, 0),
        run.embedder(config),
    )
    for _ in range(RESUME_STEPS):
        replay.run_epoch(limit=1)
    if w.learning_report and run.learning is None:
        run.learning = {
            name: checks.retain_gap(
                *heldout_retain_logits(run, params, heldout, config.embed_dim)
            )
            for name, params in (("trained", final_params), ("untrained", initial_params))
        }
    outputs = {
        "steps": steps,
        "claim_steps": len(steps),
        "optimizer_step": trainer.optimizer.step,
        "max_posts": config.max_posts,
        "final_params": final_params,
        "resumed_params": resumed_params,
        "mid_params": mid_params,
        "replay_params": _params(replay),
        "eval_reports": eval_reports,
        "finetune_stance": [
            (task, example["prompt"], example["target"])
            for task, examples in built["sd"].finetunes for example in examples
        ],
        "accuracy": ORACLE_ACCURACY,
    }
    summary = {
        "traced": tracer is not None,
        "claim_steps": len(step_times),
        "train_s": sum(step_times),
        "posts_annotated": sum(r.posts_annotated for r in reports),
        "step_times": step_times,
        "eval_times": eval_times,
        "eval_posts": heldout.n_posts(),
        "final_saves": saves,
        "resumes": resumes[1:],
        "state_bytes": state_bytes,
        "peak_rss_mb": peak_rss_mb,
        "failures": checks.check_round(outputs),
        # Held-out retain log-odds gap (signal - noise) and its standard
        # error, under the trained and the untrained policy.
        "learning": run.learning,
        # Claim steps (the replayed ones too), the evaluations, the mid-epoch
        # and final saves, and the resumes (the replay's too); backend calls
        # are counted per process.
        "ops": (len(step_times) + RESUME_STEPS) + len(eval_times)
        + (1 + len(saves)) + (len(resumes) + 1),
        "aborted_claims": sum(r.claims_aborted for r in reports),
        "params_sha256": params_sha256(final_params),
        "run_log_sha256": log.hexdigest(),
        "trace": None if tracer is None else layer_metrics(
            tracer, requests_after - requests_before, eval_stance_calls
        ),
        "missing": tracer.missing if tracer is not None else [],
    }
    return summary, outputs


def layer_metrics(tracer: Tracer, http_requests: int = 0, eval_stance_calls: int = 0) -> dict:
    """Per-layer numbers of one traced round; missing wrap targets are omitted.

    `http_requests` is what the server counted during the round and
    `eval_stance_calls` the stance calls made inside evaluate.
    """
    s, own, calls, counts = (tracer.seconds, tracer.self_seconds, tracer.calls,
                             tracer.counts)
    total = {
        "selection.claim_draws": calls.get("selection.claim_draw", 0),
        "selection.post_draws": calls.get("selection.post_draw", 0),
        "selection.s": s.get("selection.claim_draw", 0.0)
        + s.get("selection.post_draw", 0.0),
        "annotators.stance_calls": calls.get("annotators.annotate_post", 0),
        "annotators.veracity_calls": calls.get("annotators.annotate_claim", 0),
        "annotators.backend_s": s.get("annotators.backend", 0.0),
        "annotators.parse_s": own.get("annotators.annotate_post", 0.0)
        + own.get("annotators.annotate_claim", 0.0),
        "annotators.http_requests": http_requests,
        "annotators.finetune_s": s.get("annotators.finetune", 0.0),
        "annotators.finetune_examples": counts.get("annotators.finetune_examples", 0),
        "state.embed_calls": calls.get("state.embed", 0),
        "state.embed_unique_texts": len(tracer.texts),
        "state.embed_s": s.get("state.embed", 0.0),
        "state.build_state_s": s.get("state.build_state", 0.0),
        "policy.sample_calls": calls.get("policy.sample", 0),
        "policy.sample_s": s.get("policy.sample", 0.0),
        "policy.update_calls": calls.get("policy.update", 0),
        "policy.update_rows": counts.get("policy.update_rows", 0),
        "policy.update_s": s.get("policy.update", 0.0),
        "reward.calls": calls.get("reward.labeled", 0) + calls.get("reward.unlabeled", 0),
        "reward.distributions_in": counts.get("reward.distributions_in", 0),
        "reward.s": s.get("reward.labeled", 0.0) + s.get("reward.unlabeled", 0.0),
        "engine.claim_step_s": s.get("engine.claim_step", 0.0),
        "engine.self_s": own.get("engine.claim_step", 0.0),
        "engine.save_s": s.get("engine.save", 0.0),
        "engine.load_s": s.get("engine.load", 0.0),
        "corpus.load_s": s.get("corpus.load", 0.0),
        "metrics.evaluate_s": s.get("metrics.evaluate", 0.0),
        "metrics.stance_calls": eval_stance_calls,
    }
    depends = {
        "selection.": ["claimsift.selection.ClaimSampler.sample",
                       "claimsift.selection.PostSampler.sample"],
        "annotators.stance_calls": ["claimsift.annotators.annotate_post"],
        "metrics.stance_calls": ["claimsift.annotators.annotate_post",
                                 "claimsift.metrics.evaluate"],
        "annotators.veracity_calls": ["claimsift.annotators.annotate_claim"],
        "annotators.parse_s": ["claimsift.annotators.annotate_post",
                               "claimsift.annotators.annotate_claim"],
        "state.build_state_s": ["claimsift.state.build_state"],
        "policy.sample": ["claimsift.policy.sample_action"],
        "policy.update": ["claimsift.policy.reinforce_update"],
        "reward.": ["claimsift.reward.labeled_claim_reward",
                    "claimsift.reward.unlabeled_claim_reward"],
        "corpus.": ["claimsift.corpus.load_dataset"],
        "metrics.": ["claimsift.metrics.evaluate"],
    }
    for prefix, targets in depends.items():
        if any(t in tracer.missing for t in targets):
            for name in [n for n in total if n.startswith(prefix)]:
                del total[name]
    return total


def resumed_digest(run: Run, dataset, path) -> str:
    """Digest of the parameters a resume of a saved run state restores."""
    config = run.config()
    resumed = Trainer.from_run_state(
        path, dataset, run.backend(config, 0), run.backend(config, 0),
        run.embedder(config),
    )
    return params_sha256(_params(resumed))


def round_plan(runs: list[Run], index: int, trace: int) -> tuple[Run, bool, bool]:
    """Sub-run, tracing and learning report of round `index` of a run.

    The run goes through its sub-runs in turn; with tracing, each sub-run
    has an untraced round and then a traced one. A sub-run's first untraced
    round reports the held-out retain gap.
    """
    visit, position = divmod(index, 2 if trace else 1)
    traced = position == 1
    return runs[visit % len(runs)], traced, visit < len(runs) and not traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark worker process")
    parser.add_argument("--role", choices=("setup", "rounds"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--endpoint")
    parser.add_argument("--first-round", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--resume", action="store_true",
                        help="after set-up, resume each sub-run's final run state")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    runs = [Run(workload, seed, Path(args.run_dir) / f"sub{j}", args.endpoint)
            for j, seed in enumerate(subrun_seeds(workload, args.seed))]
    plan = [round_plan(runs, i, args.trace)
            for i in range(args.first_round, args.first_round + args.rounds)]
    run, traced = (plan[0][0], plan[0][1]) if args.role == "rounds" else (runs[0], False)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    built = build(run, tracer)
    result = {"setup_s": time.perf_counter() - T0}
    if args.role == "setup" and args.resume:
        result["resumed_params_sha256"] = [
            resumed_digest(r, built["dataset"] if r is run else corpus.load_dataset(
                r.run_dir / "train.jsonl"), r.run_dir / "final-0.state")
            for r in runs
        ]
    if args.role == "rounds":
        result["rounds"] = []
        for run, traced, learning in plan:
            if built is None:
                tracer = None
                if traced:
                    tracer = Tracer()
                    tracer.install()
                built = build(run, tracer)
            if not run.truth:
                run.load_truth()
            if not learning and run.learning is None:
                run.learning = {}
            summary, _outputs = run_round(run, built, tracer)
            built = _outputs = None  # one round's trainer in memory at a time
            result["rounds"].append({**summary, "subrun": runs.index(run)})
    backends = [b for r in runs for b in r.backends]
    result["client_calls"] = {
        kind: sum(b.calls[kind] for b in backends) for kind in ("complete", "finetune")
    }
    result["backend_failures"] = sum(b.failures for b in backends)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
