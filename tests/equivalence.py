"""Digest every output of a fixed set of builds, to compare two trees.

``tests/equivalence.jsonl`` is this sweep's output for the committed
tree.  A change checks that no build moved by sweeping its own tree
and comparing the result with the committed file::

    PYTHONPATH=src python -m tests.equivalence --out after.jsonl
    python -m tests.equivalence --compare tests/equivalence.jsonl after.jsonl

A change that does move a build regenerates the committed file with
``--out tests/equivalence.jsonl``, so its diff names every changed
build, and quotes the ``--compare`` output, which names every changed
field, in CHANGES.md.  The CI ``python-floor`` job sweeps under Python
3.9 and 3.12 and compares each with the committed file, and tier-1's
``tests/test_equivalence_sweep.py`` checks each build against its
committed line under the Python that runs it.

``--compare`` prints each build's differing fields and exits 1 when
any field differs or a build is missing from one side.  It only reads
the two files, so it needs no ``PYTHONPATH``.  ``--only TEXT`` keeps the
builds whose id starts with ``TEXT``, when sweeping and on both sides
of a comparison: ``--only sim/`` keeps the simulations, and
``--only gen/1/`` the two builds of generator seed 1.

Each output line is one build: its id, and digests of every isom,
``str(HLOReport)``, the pass traces, the transform events, the inlining
ledger's JSONL, the pass failures and quarantines, the fault
injector's log and the order of ``deleted_procs``; and, in clear, the
analysis hits, misses and invalidations, the compile units, the code
size, the training counters and the sorted set of deleted routines.  A
``sim/`` line is one simulation instead: a digest of the run's exit
code and output, its step count, and every ``MachineMetrics`` field in
clear.

The builds (460):

- ``suite``: every suite program under both strategies at budgets 100,
  400 and 1000 and at all four scopes (240); budget 400 shares one
  toolchain per program, the others get a fresh one;
- ``train-ref``: trained on the training inputs plus the reference
  input, at ``p`` and ``cp`` (20);
- ``outline``: cold-block outlining at ``cp`` (10);
- ``fault``: four fault injectors (a crashing and a corrupting ``dce``,
  a crashing ``constprop``, a corrupting ``licm``) with per-pass
  verification, under both strategies at ``cp`` (80);
- ``fault-ladder``: a crashing and a corrupting ``dce`` without
  per-pass verification, at ``cp`` under both strategies (40);
- ``gen``: generated programs of seeds 0-3 under both strategies,
  trained on ``[[3], [7]]`` (8);
- ``jobs``: compress, sc, vortex and li with two workers over a disk
  cache, cold and then warm, at ``p`` and ``cp`` (16);
- ``large``: the 100-module generated program perfbench's
  ``large-program`` builds, under both strategies (2);
- ``sim``: each suite program's ``cp`` build at budget 400 under both
  strategies, run on its reference input, and the two ``large`` builds
  (``sim/large-program/``), run on no input, each on the default
  ``MachineConfig`` and on the fuzz harness's small one (44).

This module is not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

# ``repro`` is imported by the functions that build, so ``--compare``
# runs without it on the path.

SCOPES = ("base", "c", "p", "cp")
STRATEGIES = ("global", "demand")
BUDGETS = (100, 400, 1000)
FAULTS = {
    "crash-dce": dict(crash_pass="dce"),
    "corrupt-dce": dict(corrupt_pass="dce"),
    "crash-constprop": dict(crash_pass="constprop"),
    "corrupt-licm": dict(corrupt_pass="licm"),
}
JOBS_PROGRAMS = ("compress", "sc", "vortex", "li")
# perfbench's large-program: generator seed 0 at this shape.
LARGE_SHAPE = {
    "n_modules": 100,
    "funcs_per_module": 4,
    "n_globals": 25,
    "extern_window": 8,
}

MACHINES = ("default", "small")

# A build: its id and a thunk returning its line's other fields.
Build = Tuple[str, Callable[[], dict]]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def record(result, ledger, injector=None) -> dict:
    """One build's digests and counters."""
    from repro.linker.isom import to_isom_text

    report = result.report
    program = result.program
    isoms = "\n".join(
        name + ":" + _digest(to_isom_text(program.modules[name]))
        for name in sorted(program.modules)
    )
    stats = result.stats
    return {
        "isoms": _digest(isoms),
        "report": _digest(str(report)),
        "pass_traces": _digest(repr(report.pass_traces)),
        "events": _digest(repr(report.events)),
        "ledger": _digest(ledger.to_jsonl()),
        "failures": _digest(repr((report.pass_failures, report.quarantined_passes))),
        "injector": _digest(repr(injector.injected if injector else None)),
        "deleted_procs": _digest(repr(report.deleted_procs)),
        "deleted": sorted(report.deleted_procs),
        "analysis": [
            report.analysis_hits, report.analysis_misses,
            report.analysis_invalidations,
        ],
        "compile_units": round(stats.compile_units, 6),
        "code_size": stats.code_size_instrs,
        "train": [stats.train_steps, stats.train_runs, stats.annotated_blocks],
    }


def _observed(toolchain, scope: str, config, injector=None) -> Callable[[], dict]:
    def build():
        from repro.obs import BuildObserver, InliningLedger

        ledger = InliningLedger()
        result = toolchain.build(scope, config, observer=BuildObserver(ledger=ledger))
        return record(result, ledger, injector)

    return build


def _simulated(build: Callable[[], object], inputs, machine: str) -> Callable[[], dict]:
    """A simulation of the program ``build()`` returns, on ``inputs``."""

    def simulate():
        from repro.interp.fuzz import PA8000_SMALL
        from repro.machine import MachineConfig

        config = MachineConfig(**PA8000_SMALL) if machine == "small" else MachineConfig()
        metrics, result = build().run(inputs, machine=config)
        row = {"behavior": _digest(repr(result.behavior())), "steps": result.steps}
        row.update(vars(metrics))
        return row

    return simulate


def _cp_build(sources, train, strategy: str) -> Callable[[], object]:
    """The ``cp`` build at budget 400, made at its first use: the
    simulations on each machine share it, whichever ``--only`` keeps."""
    made = []

    def build():
        if not made:
            from repro.core.config import HLOConfig
            from repro.linker.toolchain import Toolchain

            config = HLOConfig(strategy=strategy, budget_percent=400)
            made.append(Toolchain(sources, train_inputs=train).build("cp", config))
        return made[0]

    return build


def builds(cache_root: str) -> Iterator[Build]:
    """Every build of the sweep, in a fixed order, made lazily."""
    from repro.core.config import HLOConfig
    from repro.linker.toolchain import Toolchain
    from repro.resilience import FaultInjector
    from repro.workloads.generator import generate_sources
    from repro.workloads.suite import all_workloads, get_workload

    for workload in all_workloads():
        sources = list(workload.sources)
        train = [list(t) for t in workload.train_inputs]
        shared = Toolchain(sources, train_inputs=train)
        for budget in BUDGETS:
            for strategy in STRATEGIES:
                toolchain = shared if budget == 400 else Toolchain(sources, train_inputs=train)
                config = HLOConfig(strategy=strategy, budget_percent=budget)
                for scope in SCOPES:
                    yield (
                        "suite/{}/{}/b{}/{}".format(workload.name, strategy, budget, scope),
                        _observed(toolchain, scope, config),
                    )
        with_ref = Toolchain(sources, train_inputs=train + [list(workload.ref_input)])
        for scope in ("p", "cp"):
            yield (
                "train-ref/{}/{}".format(workload.name, scope),
                _observed(with_ref, scope, HLOConfig()),
            )
        yield (
            "outline/{}/cp".format(workload.name),
            _observed(shared, "cp", HLOConfig(enable_outlining=True)),
        )
        for fault, kwargs in sorted(FAULTS.items()):
            for strategy in STRATEGIES:
                injector = FaultInjector(seed=7, **kwargs)
                faulty = Toolchain(sources, train_inputs=train, fault_injector=injector)
                yield (
                    "fault/{}/{}/{}".format(workload.name, fault, strategy),
                    _observed(faulty, "cp", HLOConfig(strategy=strategy, verify_each_pass=True),
                              injector),
                )
        for fault in ("crash-dce", "corrupt-dce"):
            for strategy in STRATEGIES:
                injector = FaultInjector(seed=7, **FAULTS[fault])
                faulty = Toolchain(sources, train_inputs=train, fault_injector=injector)
                yield (
                    "fault-ladder/{}/{}/{}".format(workload.name, fault, strategy),
                    _observed(faulty, "cp", HLOConfig(strategy=strategy), injector),
                )
    for seed in range(4):
        sources = generate_sources(seed)
        toolchain = Toolchain(sources, train_inputs=[[3], [7]])
        for strategy in STRATEGIES:
            yield (
                "gen/{}/{}".format(seed, strategy),
                _observed(toolchain, "cp", HLOConfig(strategy=strategy)),
            )
    for name in JOBS_PROGRAMS:
        workload = get_workload(name)
        cache_dir = "{}/{}".format(cache_root, name)
        for phase in ("cold", "warm"):
            toolchain = Toolchain(
                list(workload.sources),
                train_inputs=[list(t) for t in workload.train_inputs],
                jobs=2, cache_dir=cache_dir,
            )
            for scope in ("p", "cp"):
                yield (
                    "jobs/{}/{}/{}".format(name, phase, scope),
                    _observed(toolchain, scope, HLOConfig()),
                )
    for strategy in STRATEGIES:
        yield ("large/{}".format(strategy), _large(strategy))
    simulated = [
        (w.name, list(w.sources), [list(t) for t in w.train_inputs], list(w.ref_input))
        for w in all_workloads()
    ]
    simulated.append(("large-program", generate_sources(0, **LARGE_SHAPE), [[]], []))
    for name, sources, train, inputs in simulated:
        for strategy in STRATEGIES:
            build = _cp_build(sources, train, strategy)
            for machine in MACHINES:
                yield (
                    "sim/{}/{}/{}".format(name, strategy, machine),
                    _simulated(build, inputs, machine),
                )


def _large(strategy: str) -> Callable[[], dict]:
    def build():
        from repro.core.config import HLOConfig
        from repro.linker.toolchain import Toolchain
        from repro.workloads.generator import generate_sources

        toolchain = Toolchain(generate_sources(0, **LARGE_SHAPE), train_inputs=[[]])
        return _observed(toolchain, "cp", HLOConfig(strategy=strategy))()

    return build


def line(build_id: str, build: Callable[[], dict]) -> str:
    """Make one build and return its line of the sweep's file."""
    return json.dumps(dict(id=build_id, **build()), sort_keys=True)


def write(path: str, only: Optional[str] = None) -> int:
    """Run the sweep (or the builds whose id starts with ``only``) into ``path``."""
    cache_root = tempfile.mkdtemp(prefix="equivalence-")
    count = 0
    try:
        with open(path, "w") as handle:
            for build_id, build in builds(cache_root):
                if only is not None and not build_id.startswith(only):
                    continue
                handle.write(line(build_id, build) + "\n")
                count += 1
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return count


def _load(path: str, only: Optional[str]) -> Dict[str, dict]:
    with open(path) as handle:
        return {
            row["id"]: row for row in map(json.loads, handle)
            if row and (only is None or row["id"].startswith(only))
        }


def compare(
    path_a: str, path_b: str, only: Optional[str] = None, out=sys.stdout
) -> int:
    """Print the differing fields of each build; 1 if anything differs.

    With ``only``, both files keep just the builds whose id starts with it.
    """
    a, b = _load(path_a, only), _load(path_b, only)
    differing = 0
    for build_id in list(a) + [k for k in b if k not in a]:
        if build_id not in a or build_id not in b:
            print("{}: only in {}".format(build_id, path_a if build_id in a else path_b),
                  file=out)
            differing += 1
            continue
        fields = sorted(
            k for k in set(a[build_id]) | set(b[build_id])
            if a[build_id].get(k) != b[build_id].get(k)
        )
        if fields:
            print("{}: {}".format(build_id, " ".join(fields)), file=out)
            differing += 1
    print("{} of {} builds differ".format(differing, len(set(a) | set(b))), file=out)
    return 1 if differing else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.equivalence",
                                     description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write one JSON line per build to this file")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="compare two files written by --out")
    parser.add_argument("--only", help="keep the builds whose id starts with this text")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, only=args.only)
    count = write(args.out, args.only)
    print("{} builds written to {}".format(count, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
