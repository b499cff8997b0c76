#!/usr/bin/env python3
"""Compare two sets of benchmark results: the parent commit and a change.

    python3 benchmarks/perf/compare.py --parent p/*.json --change c/*.json

Each file is a result document written by ``run.py --json``.  Runs pair up
in the order given (parent[i] with change[i]); make them alternately, so
that each side runs first in half of the pairs.  One row per workload and
metric shows each side's first quartile, median and third quartile, the
fraction of pairs the change wins (ties count for neither side), and a
verdict:

* ``improved``: the change wins at least 0.9 of the pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved``: the interquartile range of the paired ratios
  change[i] / parent[i], as a share of their median, is wider than the
  metric's bound, and not every change run beats every parent run.  A
  slowdown of the host that lasts longer than one pair moves both runs of
  the pair and cancels in their ratio;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound``: otherwise.

Bounds come from ``BENCHMARK.json``; per-layer metrics have none and get
only ``improved`` or ``-``.  Exit status is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent.parent


def quartiles(values: List[float]) -> List[float]:
    return statistics.quantiles(values, n=4)


def relative(amount: float, base: float) -> float:
    if base:
        return amount / abs(base)
    return 0.0 if amount == 0 else math.inf


def verdict(parent: List[float], change: List[float], better: str,
            bound: Optional[float]) -> tuple:
    """(win fraction, verdict) for one metric; see the module docstring."""
    sign = 1 if better == "lower" else -1

    def beats(new: float, old: float) -> bool:
        return sign * (new - old) < 0

    wins = sum(1 for old, new in zip(parent, change) if beats(new, old))
    win_fraction = wins / min(len(parent), len(change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    if (win_fraction >= 0.9 and beats(c_median, p_median)
            and abs(c_median - p_median) > p_q3 - p_q1):
        return win_fraction, "improved"
    if bound is None:
        return win_fraction, "-"
    r_q1, r_median, r_q3 = quartiles([relative(new, old) for old, new in zip(parent, change)])
    spread = relative(r_q3 - r_q1, r_median)
    every_run_better = all(beats(new, old) for new in change for old in parent)
    if spread > bound and not every_run_better:
        return win_fraction, "unresolved"
    if relative(sign * (c_median - p_median), p_median) > bound:
        return win_fraction, "regressed"
    return win_fraction, "within bound"


def load_runs(paths: List[str]) -> List[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def series(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [run["workloads"][workload]["metrics"][metric] for run in runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent result documents")
    parser.add_argument("--change", nargs="+", required=True, help="change result documents")
    args = parser.parse_args(argv)
    if min(len(args.parent), len(args.change)) < 2:
        parser.error("need at least two runs on each side")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {metric["name"]: metric for metric in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)

    header = (f"{'workload':14s} {'metric':28s} {'parent q1/median/q3':>36s} "
              f"{'change q1/median/q3':>36s} {'wins':>5s}  verdict")
    print(header)
    regressed = 0
    for workload in parent[0]["workloads"]:
        for name in parent[0]["workloads"][workload]["metrics"]:
            old, new = series(parent, workload, name), series(change, workload, name)
            win_fraction, outcome = verdict(old, new, metrics[name]["better"],
                                            metrics[name].get("bound"))
            regressed += outcome == "regressed"
            cells = ["/".join(f"{value:.4g}" for value in quartiles(side)) for side in (old, new)]
            print(f"{workload:14s} {name:28s} {cells[0]:>36s} {cells[1]:>36s} "
                  f"{win_fraction:5.2f}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
