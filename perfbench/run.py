"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 0 --seconds 10 --trace 0
    PYTHONPATH=src python -m perfbench --workload simulate --seed 3 --trace

It prints every metric with its unit, writes the full result (and, when
traced, a Chrome trace) under ``perfbench/out/``, and ends its standard
output with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics untraced, the per-layer ones
traced.  It exits 1 when any output is wrong, and without a result when
the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("compile", "simulate", "large-program")


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("perfbench: no sources to measure at {}".format(src))
    # Run as a script, this directory leads sys.path, and its trace.py
    # would shadow the standard library's module of that name.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p) != here]
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order of the workload's ops")
    parser.add_argument("--seconds", type=float, default=10,
                        help="the time a run is meant to measure; accepted for "
                        "BENCHMARK.json's command line, but a run always measures "
                        "its workload's fixed rounds, sized to take longer than "
                        "this at the reference host speed (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: one untraced and one traced round, per-layer metrics")
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench", "out"),
                        help="directory for the result and trace files")
    args = parser.parse_args(argv)

    _use_checkout_sources()
    from perfbench import bench, trace
    from perfbench.workloads import WORKLOADS

    result, recorder = bench.measure(
        WORKLOADS[args.workload](), seed=args.seed, traced=bool(args.trace),
    )

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, "{}-seed{}{}".format(
        args.workload, args.seed, "-trace" if args.trace else ""))
    if recorder is not None:
        result["chrome_trace"] = stem + ".chrome.json"
        trace.write_chrome_trace(recorder, result["chrome_trace"])
    with open(stem + ".json", "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True, default=repr)
        handle.write("\n")

    print("perfbench {} seed {}: {} ops in {} rounds ({:.1f} s measured), {} failed".format(
        args.workload, args.seed, result["attempted"], result["rounds"],
        result["measured_s"], result["failed"]))
    for name, metric in result["metrics"].items():
        print("  {:<34} {:>16.6g} {}".format(name, metric["value"], metric["unit"]))
    for name, value in sorted(result["outputs"].items()):
        print("  output {:<27} {!r}".format(name, value))
    for failure in result["failures"]:
        print("  FAILED {op} ({kind}): {error}".format(**failure))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
