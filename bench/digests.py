"""Print the reference digests of each workload's final parameters and run log.

Usage, from the root of a checkout: python3 bench/digests.py [--seed 1]

Runs every workload once through run.py and prints the sha256 of the final
policy parameters (w1 then w2, little-endian float64 bytes) and of the run
log (the Trainer's decision events, without timestamps, one sorted-key JSON
object per line). A change that claims to leave training bit-identical
reports these next to the ones in README.md; no run is gated on them.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0"],
            stdout=subprocess.DEVNULL,
        )
        result = BENCH_DIR.parent / ".bench_runs" / f"{name}-seed{args.seed}-trace0" \
            / "result.json"
        if proc.returncode != 0:
            print(f"{name}: benchmark run failed (exit {proc.returncode})")
            status = 1
            continue
        first = json.loads(result.read_text())["rounds"][0]
        print(f"{name:13s} params {first['params_sha256']}")
        print(f"{'':13s} run_log {first['run_log_sha256']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
