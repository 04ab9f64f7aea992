"""Compare two `claimsift train` run directories decision by decision.

Usage, from the root of a checkout:

    python3 tools/diff_runs.py RUN_A RUN_B

Each line of a run's `run_log.jsonl` is one decision. The runs decided alike
when their logs have as many lines and every pair of lines has the same
claim_id, level, action and reward (`ts` is not compared). The tool prints
the first line where they differ, if any, and the largest |Δp_retain| and
|Δcosine| over the lines before it. It then compares the two
`run_state.ckpt` files byte for byte, as `cmp` does: the trainer reads no
clock and stores no run directory, so the whole run state (policy, Adam
moments, replay table, baselines and rng states) of one seed on one corpus
is the same file, and the first differing byte is printed if it is not.

A change that only regroups float64 sums, or is meant to be bit-exact, is
checked with it: the exit status is 0 when the decisions and the run states
are identical, 1 when either differs, and 2 when a run directory cannot be
read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DECISION = ("claim_id", "level", "action", "reward")


def read_log(run_dir: Path) -> list[dict]:
    with (run_dir / "run_log.jsonl").open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def compare_logs(a: list[dict], b: list[dict]) -> dict:
    """The first differing line (1-based; None if the decisions agree), what
    differs there, and the largest |Δp_retain| and |Δcosine| before it."""
    first, detail = None, ""
    dp = dcos = 0.0
    for line, (x, y) in enumerate(zip(a, b), start=1):
        differ = [key for key in DECISION if x.get(key) != y.get(key)]
        if differ:
            first = line
            detail = ", ".join(f"{key} {x.get(key)!r} != {y.get(key)!r}" for key in differ)
            break
        dp = max(dp, abs(x["p_retain"] - y["p_retain"]))
        dcos = max(dcos, abs(x["cosine"] - y["cosine"]))
    if first is None and len(a) != len(b):
        first = min(len(a), len(b)) + 1
        detail = f"one log ends: {len(a)} != {len(b)} lines"
    return {"lines": (len(a), len(b)), "first_difference": first, "detail": detail,
            "max_dp_retain": dp, "max_dcosine": dcos}


def first_differing_byte(a: bytes, b: bytes) -> int | None:
    """The 1-based offset of the first byte where `a` and `b` differ, as
    `cmp` counts, or one past the shorter when it is a prefix of the
    longer; None when they are equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b), start=1) if x != y),
                min(len(a), len(b)) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    args = parser.parse_args(argv)
    try:
        logs = compare_logs(read_log(args.run_a), read_log(args.run_b))
        state_byte = first_differing_byte(*((run / "run_state.ckpt").read_bytes()
                                            for run in (args.run_a, args.run_b)))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if logs["first_difference"] is None:
        print(f"decisions: identical ({logs['lines'][0]} lines)")
    else:
        print(f"decisions: differ at line {logs['first_difference']}: {logs['detail']}")
    print(f"max |dp_retain|: {logs['max_dp_retain']:.3g}")
    print(f"max |dcosine|: {logs['max_dcosine']:.3g}")
    if state_byte is None:
        print("run_state.ckpt: identical")
    else:
        print(f"run_state.ckpt: differ at byte {state_byte}")
    return 0 if logs["first_difference"] is None and state_byte is None else 1


if __name__ == "__main__":
    sys.exit(main())
