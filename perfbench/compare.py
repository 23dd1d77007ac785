"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT.json CHANGE.json
    python3 perfbench/compare.py perfbench/results/BENCH_11.json

A file holds sets of runs (``{"sets": [{"runs": [...]}, ...]}``, as
``perfbench/sweep.py`` writes it).  Given two files, each file's sets
are pooled and the files compared; given one file holding exactly two
sets, those two are compared.

For every (workload, end-to-end metric) it prints each side's median
and quartiles and a verdict under the bound in ``BENCHMARK.json``:

- ``within bound``: the second median is no worse than the first by
  more than the bound;
- ``worse``: it is;
- ``unresolved``: the first set's own spread (quartile distance over
  median) is wider than the bound, so the medians cannot be compared --
  unless every run of the second set reads better than every run of
  the first, which is reported as ``better``.

Per-layer metrics of traced runs are listed with their medians only.
Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from typing import List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_sets(path: str) -> List[dict]:
    with open(path) as handle:
        return json.load(handle)["sets"]


def _values(runs: List[dict], workload: str, metric: str, traced: bool) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and bool(run["trace"]) == traced
        and metric in run["metrics"]
    ]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(first: Sequence[float], second: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """(verdict, relative worsening of the median, first set's spread)."""
    q1, median, q3 = quartiles(first)
    second_median = quartiles(second)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (second_median - median) / median
    spread = (q3 - q1) / median
    if spread > bound:
        if better == "lower":
            clearly_better = max(second) < min(first)
        else:
            clearly_better = min(second) > max(first)
        return ("better" if clearly_better else "unresolved"), worse_by, spread
    return ("worse" if worse_by > bound else "within bound"), worse_by, spread


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return "{:.4g} [{:.4g}, {:.4g}]".format(median, q1, q3)


def compare(first: List[dict], second: List[dict], benchmark: dict) -> Tuple[List[str], int]:
    """(report lines, number of pairs that got worse)."""
    workloads = [w["name"] for w in benchmark["workloads"]]
    lines = ["{:<14} {:<22} {:>30} {:>30} {:>9} {:>7} {:>6}  {}".format(
        "workload", "metric", "first: median [q1, q3]", "second: median [q1, q3]",
        "worse by", "spread", "bound", "verdict")]
    worse = 0
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = _values(first, workload, name, traced=False)
            b = _values(second, workload, name, traced=False)
            if not a or not b:
                continue
            word, worse_by, spread = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            lines.append("{:<14} {:<22} {:>30} {:>30} {:>+9.1%} {:>7.1%} {:>6.0%}  {}".format(
                workload, name, _fmt(a), _fmt(b), worse_by, spread, metric["bound"], word))
    layer_lines = []
    for workload in workloads:
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            a = _values(first, workload, name, traced=True)
            b = _values(second, workload, name, traced=True)
            if a and b:
                layer_lines.append("{:<14} {:<28} {:>16.6g} {:>16.6g}".format(
                    workload, name, quartiles(a)[1], quartiles(b)[1]))
    if layer_lines:
        lines += ["", "per-layer medians (traced runs)",
                  "{:<14} {:<28} {:>16} {:>16}".format("workload", "metric", "first", "second")]
        lines += layer_lines
    return lines, worse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.compare", description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="two set files, or one file holding two sets")
    args = parser.parse_args(argv)
    if len(args.files) == 1:
        sets = load_sets(args.files[0])
        if len(sets) != 2:
            parser.error("{} holds {} sets, not 2".format(args.files[0], len(sets)))
    elif len(args.files) == 2:
        sets = [{"runs": [r for s in load_sets(path) for r in s["runs"]]} for path in args.files]
    else:
        parser.error("give one or two files")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    lines, worse = compare(sets[0]["runs"], sets[1]["runs"], benchmark)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
