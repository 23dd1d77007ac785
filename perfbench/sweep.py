"""Run the benchmark once per (seed, workload) and collect the runs as one set.

    python3 perfbench/sweep.py --label A --out perfbench/out/A.json

Runs are made one after another, each in its own process, exactly as
``BENCHMARK.json``'s command makes them: ``SEEDS_PER_SET`` untraced
runs of each workload, seeds advancing in the outer loop so a slow
stretch of the host touches every workload alike, then one traced run
of each workload with ``--trace-seed``.  The set is
appended to the sets already in ``--out``, so one file can hold the
sets of a trajectory point; ``perfbench/compare.py`` reads it.  Each
run's own result file is kept under ``perfbench/out/<label>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from typing import Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900
# Untraced runs per workload in one set: enough for quartiles.
SEEDS_PER_SET = 10


def run_once(benchmark: dict, workload: str, seed: int, traced: bool, out: str) -> dict:
    command = benchmark["command"] + ["--workload", workload, "--seed", str(seed),
                "--seconds", str(benchmark["run_seconds"]), "--trace", str(int(traced)),
                "--out", out]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall_s = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit("{} failed ({}):\n{}{}".format(
            " ".join(command), done.returncode, done.stdout, done.stderr))
    line = json.loads(done.stdout.strip().splitlines()[-1])
    stem = "{}-seed{}{}".format(workload, seed, "-trace" if traced else "")
    with open(os.path.join(out, stem + ".json")) as handle:
        full = json.load(handle)
    run = {"workload": workload, "seed": seed, "trace": int(traced), "wall_s": wall_s}
    run.update(line)
    for key in ("outputs", "layers", "engine_sink", "raw", "probe_median_s", "rounds",
                "measured_s"):
        if key in full:
            run[key] = full[key]
    return run


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.sweep", description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the untraced runs use this seed and the next ones")
    parser.add_argument("--trace-seed", type=int, default=0,
                        help="the seed of each workload's traced run")
    parser.add_argument("--out", required=True,
                        help="the file of sets to append this set to")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    workloads = [w["name"] for w in benchmark["workloads"]]
    run_dir = os.path.join(ROOT, "perfbench", "out", args.label)
    os.makedirs(run_dir, exist_ok=True)

    runs = []
    plan = [(seed, w, False) for seed in range(args.first_seed, args.first_seed + SEEDS_PER_SET)
            for w in workloads]
    plan += [(args.trace_seed, w, True) for w in workloads]
    for seed, workload, traced in plan:
        run = run_once(benchmark, workload, seed, traced, run_dir)
        print("{:<14} seed {:>3}{} {:6.1f}s {}".format(
            workload, seed, " traced" if traced else "", run["wall_s"],
            " ".join("{}={:.6g}".format(k, v["value"]) for k, v in run["metrics"].items()
                     if not traced)), flush=True)
        runs.append(run)

    new_set = {
        "label": args.label,
        "run_seconds": benchmark["run_seconds"],
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "runs": runs,
    }
    sets = []
    if os.path.exists(args.out):
        with open(args.out) as handle:
            sets = json.load(handle)["sets"]
    with open(args.out, "w") as handle:
        json.dump({"sets": sets + [new_set]}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
