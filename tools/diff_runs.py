"""Compare two `claimsift train` run directories decision by decision.

Usage, from the root of a checkout:

    python3 tools/diff_runs.py RUN_A RUN_B

Each line of a run's `run_log.jsonl` is one decision. The runs decided alike
when their logs have as many lines and every pair of lines has the same
claim_id, level, action and reward (`ts` is not compared). The tool prints
the first line where they differ, if any; the largest |Δp_retain| and
|Δcosine| over the lines before it; and whether the final `w1` and `w2` in
`run_state.ckpt` are bitwise equal, or else each one's largest relative
difference (the largest |a - b| over the largest |a|).

A change that only regroups float64 sums, or is meant to be bit-exact, is
checked with it: the exit status is 0 when the decisions and both parameter
arrays are identical, 1 when either differs, and 2 when a run directory
cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from claimsift.errors import CheckpointError  # noqa: E402
from claimsift.runstate import read_run_state  # noqa: E402

DECISION = ("claim_id", "level", "action", "reward")
PARAMS = ("w1", "w2")


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


def compare_params(a: dict, b: dict) -> dict[str, float | str | None]:
    """Per parameter: None when bitwise equal, else the largest relative
    difference, or a note when the shapes differ."""
    out: dict[str, float | str | None] = {}
    for name in PARAMS:
        x, y = a[name], b[name]
        if x.shape != y.shape:
            out[name] = f"shapes differ: {x.shape} != {y.shape}"
        elif x.tobytes() == y.tobytes():
            out[name] = None
        else:
            scale = float(np.max(np.abs(x))) or 1.0
            out[name] = float(np.max(np.abs(x - y))) / scale
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    args = parser.parse_args(argv)
    try:
        logs = compare_logs(read_log(args.run_a), read_log(args.run_b))
        params = compare_params(*(read_run_state(run / "run_state.ckpt")[1]
                                  for run in (args.run_a, args.run_b)))
    except (OSError, ValueError, KeyError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if logs["first_difference"] is None:
        print(f"decisions: identical ({logs['lines'][0]} lines)")
    else:
        print(f"decisions: differ at line {logs['first_difference']}: {logs['detail']}")
    print(f"max |dp_retain|: {logs['max_dp_retain']:.3g}")
    print(f"max |dcosine|: {logs['max_dcosine']:.3g}")
    for name, diff in params.items():
        if diff is None:
            print(f"{name}: bitwise equal")
        elif isinstance(diff, str):
            print(f"{name}: {diff}")
        else:
            print(f"{name}: largest relative difference {diff:.3g}")
    same = logs["first_difference"] is None and all(d is None for d in params.values())
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
