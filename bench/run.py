"""Training-loop benchmark for claimsift.

Usage, from the root of a checkout:

    python3 bench/run.py --workload incremental --seed 1 --seconds 25 --trace 0

Generates the corpora of the workload's sub-runs from --seed, starts the
latency server on http_latency, then runs rounds in fresh worker processes
until every sub-run has had one and --seconds have passed. Two more fresh
processes time set-up and resume the rounds' final run states. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics and the tracing overhead. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 when every correctness check passed, 1 when one
failed, and 2 when the program's sources are not in the checkout. Details
of the run go to .bench_runs/<workload>-seed<n>-trace<t>/result.json.
"""

import os

# One BLAS thread: numpy's OpenBLAS would otherwise spread each matmul over
# every core, which makes CPU time exceed wall time and the timings depend on
# whatever else the machine runs. Set before anything imports numpy; the
# worker and server processes inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import urllib.request  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))
from checks import check_server_counts  # noqa: E402
from workloads import (  # noqa: E402
    HELDOUT_SEED, HTTP_DELAY_MS, SKEWED_STANCE_MIX, TRAIN_SEED, WARMUP_CLAIMS,
    WARMUP_POSTS, WARMUP_SEED, WORKLOADS, subrun_seeds,
)

SETUP_SAMPLES = 2  # fresh processes that only time set-up and resume
MIN_CLAIM_STEPS = 100  # enough for a p90 with ten samples beyond it
PROCESS_TIMEOUT_S = 150


def generate_inputs(workload, seed: int, run_dir: Path) -> None:
    from claimsift.annotators import format_stance_target
    from claimsift.corpus import SynthConfig, generate_synthetic, save_dataset
    from claimsift.prompts import build_stance_prompt

    for name, spec, offset in (("train", workload.train, TRAIN_SEED),
                               ("heldout", workload.heldout, HELDOUT_SEED)):
        extra = {"stance_given_veracity": SKEWED_STANCE_MIX} if spec.skewed else {}
        dataset = generate_synthetic(SynthConfig(
            n_claims=spec.n_claims, posts_per_claim=spec.posts_per_claim,
            noise_post_fraction=spec.noise_post_fraction, rng_seed=offset + seed,
            name=name, **extra,
        ))
        save_dataset(dataset, run_dir / f"{name}.jsonl")
    if workload.http:
        warmup = generate_synthetic(SynthConfig(
            n_claims=WARMUP_CLAIMS, posts_per_claim=WARMUP_POSTS,
            rng_seed=WARMUP_SEED + seed, name="warmup",
        ))
        with (run_dir / "warmup.jsonl").open("w", encoding="utf-8") as fh:
            for claim in warmup.claims:
                for post in claim.posts:
                    if post.stance is not None:
                        fh.write(json.dumps({
                            "prompt": build_stance_prompt(claim, post),
                            "target": format_stance_target(post.stance, "gold label."),
                        }) + "\n")


def start_server():
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "latency_server.py"),
         "--delay-ms", str(HTTP_DELAY_MS)],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "port":
        stop(proc)
        raise RuntimeError("latency server did not start")
    return proc, f"http://127.0.0.1:{line[1]}"


def stop(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_worker(args, run_dir: Path, role: str, index: int, endpoint,
               extra: list[str]) -> dict:
    out = run_dir / f"worker-{role}-{index}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--run-dir", str(run_dir), "--out", str(out), *extra]
    if endpoint:
        cmd += ["--endpoint", endpoint]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                   timeout=PROCESS_TIMEOUT_S)
    return json.loads(out.read_text())


def run_rounds(args, workload, run_dir: Path, endpoint) -> tuple[list, list]:
    """Rounds until every sub-run has had one and --seconds have passed.

    A worker process runs one pass through the sub-runs, or with
    `process_per_round` a single round; see workloads.py.
    """
    per_pass = (2 if args.trace else 1) * workload.subruns
    chunk = 1 if workload.process_per_round else per_pass
    deadline = time.perf_counter() + args.seconds
    rounds, workers = [], []
    while (
        len(rounds) < per_pass
        or time.perf_counter() < deadline
        or sum(r["claim_steps"] for r in rounds if not r["traced"]) < MIN_CLAIM_STEPS
    ):
        extra = ["--first-round", str(len(rounds)), "--rounds", str(chunk),
                 "--trace", str(args.trace)]
        worker = run_worker(args, run_dir, "rounds", len(workers), endpoint, extra)
        rounds += worker.pop("rounds")
        workers.append(worker)
    return rounds, workers


def median_of(rounds, num: str, den: str) -> float:
    return statistics.median(r[num] / r[den] for r in rounds)


def typical_round(rounds) -> list[float]:
    """Per claim step, its median time over the identical rounds of a sub-run.

    A burst of load from elsewhere on the machine slows a stretch of one
    round; the per-step median leaves it out where a total would not.
    """
    return [statistics.median(times) for times in zip(*(r["step_times"] for r in rounds))]


def by_subrun(rounds) -> list[list[dict]]:
    """The rounds of each sub-run, in sub-run order."""
    groups: dict[int, list[dict]] = {}
    for r in rounds:
        groups.setdefault(r["subrun"], []).append(r)
    return [groups[j] for j in sorted(groups)]


def end_to_end(workers, rounds) -> dict:
    """The user-facing metrics of a run.

    Training throughput divides the work of all sub-runs by their summed
    typical times, so every sub-run weighs the same however often it was
    repeated. Evaluations, saves and resumes are medians over every repeat
    of every round: the rounds are spread over the run, and the machine
    runs some stretches of a few seconds much faster than the rest, which
    a mean over rounds would follow.
    """
    subruns = by_subrun(rounds)
    typical = [typical_round(g) for g in subruns]
    train_s = sum(sum(steps) for steps in typical)
    steps_ms = [1000.0 * t for steps in typical for t in steps]
    deciles = statistics.quantiles(steps_ms, n=10)
    mib = 1024.0 * 1024.0
    values = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "train_claims_per_s": (sum(g[0]["claim_steps"] for g in subruns) / train_s, "1/s"),
        "train_posts_per_s": (sum(g[0]["posts_annotated"] for g in subruns) / train_s, "1/s"),
        "claim_step_ms_p50": (statistics.median(steps_ms), "ms"),
        "claim_step_ms_p90": (deciles[8], "ms"),
        "eval_posts_per_s": (statistics.median(
            r["eval_posts"] / t for r in rounds for t in r["eval_times"]), "1/s"),
        "checkpoint_save_s": (statistics.median(
            t for r in rounds for t in r["final_saves"]), "s"),
        "resume_s": (statistics.median(t for r in rounds for t in r["resumes"]), "s"),
        "run_state_mb": (statistics.fmean(g[0]["state_bytes"] for g in subruns) / mib,
                         "MiB"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(rounds) -> tuple[dict, list[str]]:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    out = {}
    for name in traced[0]["trace"]:
        value = statistics.median(r["trace"][name] for r in traced)
        unit = "s" if name.endswith(("_s", ".s")) else "count"
        out[name] = {"value": value, "unit": unit}
    plain = median_of(untraced, "claim_steps", "train_s")
    with_trace = median_of(traced, "claim_steps", "train_s")
    out["trace.untraced_claims_per_s"] = {"value": plain, "unit": "1/s"}
    out["trace.traced_claims_per_s"] = {"value": with_trace, "unit": "1/s"}
    out["trace.overhead_pct"] = {"value": 100.0 * (plain / with_trace - 1.0), "unit": "%"}
    return out, traced[0]["missing"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="claimsift training-loop benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "claimsift" / "__init__.py").is_file():
        print(f"claimsift sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("blas threads: " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()))

    for j, seed in enumerate(subrun_seeds(workload, args.seed)):
        (run_dir / f"sub{j}").mkdir()
        generate_inputs(workload, seed, run_dir / f"sub{j}")
    server, endpoint = start_server() if workload.http else (None, None)
    try:
        rounds, round_workers = run_rounds(args, workload, run_dir, endpoint)
        samples = [] if args.trace else [
            run_worker(args, run_dir, "setup", i, endpoint, ["--resume"])
            for i in range(SETUP_SAMPLES)
        ]
        server_stats = None
        if server is not None:
            with urllib.request.urlopen(endpoint + "/stats", timeout=10) as resp:
                server_stats = json.loads(resp.read())
    finally:
        if server is not None:
            stop(server)

    workers = samples + round_workers
    subruns = by_subrun(rounds)
    failures = [f for r in rounds for f in r["failures"]]
    for j, group in enumerate(subruns):
        for key in ("params_sha256", "run_log_sha256"):
            if len({r[key] for r in group}) != 1:
                failures.append(f"identical rounds of sub-run {j} gave different {key}")
    final = [g[0]["params_sha256"] for g in subruns]
    if any(w["resumed_params_sha256"] != final for w in samples):
        failures.append("a fresh process resumed different parameters")
    client = {kind: sum(w["client_calls"][kind] for w in workers)
              for kind in ("complete", "finetune")}
    if server_stats is not None:
        failures += check_server_counts(server_stats, client)
    attempted = sum(r["ops"] for r in rounds) + sum(client.values())
    # Resumes in the set-up processes count as operations too.
    attempted += sum(len(w["resumed_params_sha256"]) for w in samples)
    failed = (sum(r["aborted_claims"] for r in rounds)
              + sum(w["backend_failures"] for w in workers))

    missing = []
    if args.trace:
        metrics, missing = per_layer(rounds)
    else:
        metrics = end_to_end(workers, rounds)
    steps = sum(r["claim_steps"] for r in rounds)
    print(f"rounds {len(rounds)} over {len(subruns)} sub-runs, claim steps {steps}, "
          f"operations {attempted}, "
          f"failed {failed}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not failures:
        print("checks: all passed")
    for name in missing:
        print(f"missing: {name} no longer exists; its metrics are not reported")
    learning = [g[0]["learning"] for g in subruns if g[0]["learning"]]
    if learning:
        print("learning (reported, not checked): held-out retain log-odds gap, "
              "trained (untrained) policy, per sub-run:")
        print("  " + ", ".join(
            f"{gap:.2f}+-{se:.2f} ({start:.2f})" for (gap, se), (start, _) in (
                (x["trained"], x["untrained"]) for x in learning)))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")

    for path in run_dir.glob("*/*.state"):
        path.unlink()
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps({
        **result, "failures": failures, "missing": missing, "learning": learning,
        "blas": BLAS_ENV,
        "server": server_stats, "client_calls": client, "workers": workers,
        "rounds": rounds,
    }, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
