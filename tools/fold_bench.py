"""Fold paired benchmark runs of a parent and a change into one JSON file.

Each side is a checkout in which `bench/run.py --trace 0` was run with the
same seeds, so that `<side>/.bench_runs/<workload>-seed<n>-trace0/result.json`
exists for each seed. Runs of one seed on both sides make a pair. With
`--seeds FIRST-LAST` only those seeds are folded, and a requested seed that
has no run on one side of a workload is refused (exit 1), so that a stray
run left in either checkout is never folded in. Per
workload and end-to-end metric the output holds both sides' values by seed,
their medians and quartiles, the change's median against the parent's in
percent, the number of pairs the change won (a tie is not a win), and a
verdict:

    gain          the change won at least 9/10 of the pairs, and its median
                  is better than the parent's by more than the distance
                  between the parent's quartiles;
    worse         its median is worse than the parent's by more than the
                  metric's bound, as a fraction of the parent's median;
    unresolved    the parent's quartile distance, as a fraction of its
                  median, exceeds the bound, so the runs spread too widely
                  to tell;
    within bound  otherwise.

Directions ("lower" or "higher" is better) and bounds come from
BENCHMARK.json.

Usage, from the root of a checkout:

    python3 tools/fold_bench.py --parent ../parent --change . --seeds 1401-1410 \\
        --out BENCH_<n>.json --command "python3 bench/run.py --workload W --seed S --seconds 25 --trace 0"

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace0")


def read_runs(checkout: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result}} of the untraced runs under `checkout`."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted((checkout / ".bench_runs").glob("*-trace0/result.json")):
        match = RUN_DIR.fullmatch(path.parent.name)
        if match:
            result = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault(match["workload"], {})[int(match["seed"])] = result
    return runs


def seed_range(text: str) -> range:
    """The seeds of `FIRST-LAST` (or of one seed `N`), both ends included."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if match is None or int(match[2] or match[1]) < int(match[1]):
        raise argparse.ArgumentTypeError(f"expected FIRST-LAST, got {text!r}")
    return range(int(match[1]), int(match[2] or match[1]) + 1)


def select(parent: dict[str, dict[int, dict]], change: dict[str, dict[int, dict]],
           seeds: range) -> tuple[dict, dict, list[str]]:
    """Both sides' runs of `seeds` only, and what is missing: for each
    workload with a run of one of them, each side that lacks one of them."""
    parent, change = ({workload: {s: r for s, r in runs.items() if s in seeds}
                       for workload, runs in side.items()} for side in (parent, change))
    missing = []
    for workload in sorted(parent.keys() | change.keys()):
        sides = (("parent", parent.get(workload, {})), ("change", change.get(workload, {})))
        if not any(runs for _name, runs in sides):
            continue
        for name, runs in sides:
            lacking = [s for s in seeds if s not in runs]
            if lacking:
                missing.append(f"{workload}: no {name} run of seeds {lacking}")
    return parent, change, missing


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(before: dict, after: dict, won: int, pairs: int, lower: bool,
            bound: float) -> str:
    """One of "gain", "worse", "unresolved" and "within bound" (see the
    module docstring), from both sides' `summary` and the pairs won."""
    gain = (before["median"] - after["median"]) if lower else (after["median"] - before["median"])
    spread = before["q3"] - before["q1"]
    if 10 * won >= 9 * pairs and gain > spread:
        return "gain"
    if -gain > bound * abs(before["median"]):
        return "worse"
    if spread > bound * abs(before["median"]):
        return "unresolved"
    return "within bound"


def fold(parent: dict[str, dict[int, dict]], change: dict[str, dict[int, dict]],
         metrics: dict[str, dict]) -> dict:
    workloads = {}
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        if len(seeds) < 2:
            continue
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        entry = {
            "seeds": seeds,
            "incorrect_runs": {"parent": sum(not p["correct"] for p, _ in pairs),
                               "change": sum(not c["correct"] for _, c in pairs)},
            "failed_operations": {"parent": sum(p["failed"] for p, _ in pairs),
                                  "change": sum(c["failed"] for _, c in pairs)},
            "metrics": {},
        }
        for name, spec in metrics.items():
            if not all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
                continue
            old = [p["metrics"][name]["value"] for p, _ in pairs]
            new = [c["metrics"][name]["value"] for _, c in pairs]
            lower = spec["better"] == "lower"
            won = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
            before, after = summary(old), summary(new)
            entry["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"],
                "parent": before, "change": after,
                "change_pct": 100.0 * (after["median"] / before["median"] - 1.0)
                if before["median"] else None,
                "pairs_won": won, "pairs": len(seeds),
                "verdict": verdict(before, after, won, len(seeds), lower, spec["bound"]),
            }
        workloads[workload] = entry
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--command", default="", help="the bench command, for the record")
    parser.add_argument("--out", type=Path, required=True, help="the file to write")
    parser.add_argument("--seeds", type=seed_range, metavar="FIRST-LAST",
                        help="fold only these seeds; each must have a run on both sides")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = read_runs(args.parent), read_runs(args.change)
    if args.seeds is not None:
        parent, change, missing = select(parent, change, args.seeds)
        if missing:
            print("refusing to fold:\n  " + "\n  ".join(missing), file=sys.stderr)
            return 1
    workloads = fold(parent, change, metrics)
    if not workloads:
        print("no workload has two or more paired runs", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps({"command": args.command, "workloads": workloads},
                                   indent=1) + "\n", encoding="utf-8")
    for workload, entry in workloads.items():
        print(f"{workload} ({len(entry['seeds'])} pairs, seeds "
              f"{', '.join(map(str, entry['seeds']))})")
        for name, m in entry["metrics"].items():
            pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
            print(f"  {name:20s} {m['parent']['median']:12.4g} -> "
                  f"{m['change']['median']:12.4g} {m['unit']:4s} {pct:>8s}  "
                  f"won {m['pairs_won']:2d}/{m['pairs']}  {m['verdict']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
