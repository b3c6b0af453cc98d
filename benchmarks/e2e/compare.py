#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark result files.

    python3 benchmarks/e2e/compare.py --base A/*.json --change B/*.json

Each file is a ``run.py --out`` result.  For every workload x
end-to-end metric of ``BENCHMARK.json`` this prints each side's median
and quartiles, its spread (quartile distance over median), the
fraction of seed-matched pairs the change wins (ties count for
neither), and a verdict:

* ``improved`` - there are at least ten seed-matched pairs, the change
  wins at least 9/10 of them, its median beats the base median by more
  than the base's quartile distance, and no more operations failed than
  in the base;
* ``worse`` - the change's median is worse than the base's by more than
  the metric's bound (a share of the base median);
* ``unresolved`` - the base's own spread is wider than the bound and
  not every change run beats every base run, so "no regression" cannot
  be shown; or the change looks like a gain but has fewer than ten
  pairs behind it;
* ``unchanged`` - otherwise.

A side with two runs of one workload and seed is refused: pass each
set of runs on its own side.  Exit code 1 when any pairing is ``worse``
or ``unresolved``, 2 when the inputs are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent

#: Seed-matched pairs a gain needs before it counts.
MIN_PAIRS = 10


def load_runs(paths: Sequence[str]) -> List[dict]:
    """Untraced runs from result files (traced runs carry layer metrics)."""
    runs = []
    for path in paths:
        for record in json.loads(Path(path).read_text())["runs"]:
            if record.get("trace") == 0 and "result" in record:
                runs.append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(
    base: Dict[int, float],
    change: Dict[int, float],
    better: str,
    bound: float,
    base_failed: int = 0,
    change_failed: int = 0,
) -> Dict[str, object]:
    """Apply the gain / no-regression rule to one metric on one workload.

    ``base`` and ``change`` map seed -> value; seeds present on both
    sides form the pairs.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, c = list(base.values()), list(change.values())
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    pairs = sorted(set(base) & set(change))
    wins = sum(1 for s in pairs if sign * (change[s] - base[s]) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = sign * (cmed - bmed)
    if (
        win_frac >= 0.9 and gain > bq3 - bq1 and change_failed <= base_failed
    ):
        status = "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
    elif (bq3 - bq1) > bound * abs(bmed):
        every = all(sign * (x - y) > 0 for x in c for y in b)
        status = "unchanged" if every else "unresolved"
    elif -gain > bound * abs(bmed):
        status = "worse"
    else:
        status = "unchanged"
    return {
        "base": (bq1, bmed, bq3), "change": (cq1, cmed, cq3),
        "base_spread": spread(b), "change_spread": spread(c),
        "win_frac": win_frac, "pairs": len(pairs), "verdict": status,
    }


def compare(base_runs: List[dict], change_runs: List[dict], benchmark: dict):
    """Rows of (workload, metric, verdict dict)."""

    def index(runs):
        values = defaultdict(dict)
        failed = defaultdict(int)
        seen = set()
        for run in runs:
            key = (run["workload"], run["seed"])
            if key in seen:
                raise ValueError(
                    f"two {run['workload']} runs with seed {run['seed']} on one side"
                )
            seen.add(key)
            failed[run["workload"]] += run["result"]["failed"]
            for name, entry in run["result"]["metrics"].items():
                values[(run["workload"], name)][run["seed"]] = entry["value"]
        return values, failed

    base, base_failed = index(base_runs)
    change, change_failed = index(change_runs)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if not base.get(key) or not change.get(key):
                continue
            rows.append((workload, metric["name"], verdict(
                base[key], change[key], metric["better"], metric["bound"],
                base_failed[workload], change_failed[workload],
            )))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(load_runs(args.base), load_runs(args.change), benchmark)
    except ValueError as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':15s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'spread b/c':>13s} {'wins':>5s}  verdict")
    bad = False
    for workload, metric, v in rows:
        bq1, bmed, bq3 = v["base"]
        cq1, cmed, cq3 = v["change"]
        print(f"{workload:16s} {metric:15s} {bmed:11.5g} [{bq1:9.5g}, {bq3:9.5g}] "
              f"{cmed:11.5g} [{cq1:9.5g}, {cq3:9.5g}] "
              f"{v['base_spread']:6.1%}/{v['change_spread']:6.1%} "
              f"{v['win_frac']:5.0%}  {v['verdict']}")
        bad |= v["verdict"] in ("worse", "unresolved")
    if not rows:
        print("no workload x metric pairs in common", file=sys.stderr)
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
