#!/usr/bin/env python3
"""Compare a base and a change by the benchmark's acceptance rule.

    python bench/compare.py BASE_DIR CHANGE_DIR [--claim WORKLOAD:METRIC ...]

Both directories hold untraced result files of ``bench/run.py`` (``--out``),
ideally ten or more runs per workload with alternating sides.  For each
workload x end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the change of the median, the wider side's spread
(quartile distance over median), the pairs the change won, and a verdict:

* ``regression``: the change's median is worse than the base's by more
  than the metric's bound;
* ``unresolved``: the spread exceeds the bound, unless every change run
  beats every base run;
* ``gain``: the change wins at least 9 in 10 of at least ten pairs (runs
  paired in seed order, ties count for neither side) and the medians
  differ by more than the base's quartile distance;
* ``same`` otherwise.

A ``--claim`` names a gain stated beforehand; it is met only by ``gain``.
Each workload also gets an ``error_frac`` row (failed / attempted
operations).  Exits 1 on a regression, a higher ``error_frac`` or an unmet
claim, 2 on unusable input, 0 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")
#: A gain needs this share of pairs won, over at least MIN_PAIRS pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_results(directory: str) -> Dict[str, List[dict]]:
    """Untraced result records per workload, in (seed, start) order."""
    runs: Dict[str, List[dict]] = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0 and "metrics" in record:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["seed"], r["started_ns"]))
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Row:
    workload: str
    metric: str
    base: Tuple[float, float, float]
    change: Tuple[float, float, float]
    delta: float  # relative change of the median, + = better
    spread: float
    wins: int
    pairs: int
    verdict: str


def judge(workload: str, metric: dict, base: Sequence[float],
          change: Sequence[float]) -> Row:
    """Apply the acceptance rule to one workload x metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    qb, qc = quartiles(base), quartiles(change)
    delta = sign * (qc[1] - qb[1]) / qb[1]
    spread = max((qb[2] - qb[0]) / qb[1], (qc[2] - qc[0]) / qc[1])
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    every_run_better = all(sign * (c - b) > 0 for c in change for b in base)
    if -delta > metric["bound"]:
        verdict = "regression"
    elif spread > metric["bound"] and not every_run_better:
        verdict = "unresolved"
    elif (delta > 0 and len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and abs(qc[1] - qb[1]) > qb[2] - qb[0]):
        verdict = "gain"
    else:
        verdict = "same"
    return Row(workload, metric["name"], qb, qc, delta, spread, wins, len(pairs),
               verdict)


def error_frac(records: Sequence[dict]) -> float:
    return sum(r["failed"] for r in records) / max(sum(r["attempted"] for r in records), 1)


def compare(spec: dict, base: Dict[str, List[dict]],
            change: Dict[str, List[dict]]) -> Tuple[List[Row], List[str]]:
    """Rows for every shared workload x metric, and the error_frac findings."""
    rows, errors = [], []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            continue
        b, c = base[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows.append(judge(workload, metric,
                              [r["metrics"][name]["value"] for r in b],
                              [r["metrics"][name]["value"] for r in c]))
        eb, ec = error_frac(b), error_frac(c)
        if ec > eb:
            errors.append(f"{workload}: error_frac {eb:.4g} -> {ec:.4g}")
    return rows, errors


def format_rows(rows: Sequence[Row]) -> str:
    lines = [f"{'workload':16} {'metric':12} {'base median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30} {'change':>8} {'spread':>7} "
             f"{'wins':>6}  verdict"]
    for r in rows:
        def cell(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        lines.append(f"{r.workload:16} {r.metric:12} {cell(r.base):>30} "
                     f"{cell(r.change):>30} {r.delta:>+8.2%} {r.spread:>7.2%} "
                     f"{r.wins:>3}/{r.pairs:<2}  {r.verdict}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two directories of benchmark results.")
    parser.add_argument("base_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC", help="a gain stated beforehand")
    args = parser.parse_args(argv)

    with open(SPEC) as f:
        spec = json.load(f)
    base, change = load_results(args.base_dir), load_results(args.change_dir)
    if not base or not change:
        print("error: both directories need untraced result files", file=sys.stderr)
        return 2
    one_sided = sorted(set(base) ^ set(change))
    if one_sided:
        print(f"error: workloads on one side only: {one_sided}", file=sys.stderr)
        return 2
    rows, errors = compare(spec, base, change)
    print(format_rows(rows))

    failed = bool(errors)
    for message in errors:
        print(f"error_frac higher: {message}")
    by_key = {f"{r.workload}:{r.metric}": r for r in rows}
    for claim in args.claim:
        row = by_key.get(claim)
        met = row is not None and row.verdict == "gain"
        failed |= not met
        print(f"claim {claim}: {'met' if met else 'not met'}")
    regressions = [r for r in rows if r.verdict == "regression"]
    failed |= bool(regressions)
    print(f"{len(regressions)} regression(s), "
          f"{sum(r.verdict == 'unresolved' for r in rows)} unresolved, "
          f"{sum(r.verdict == 'gain' for r in rows)} gain(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
