"""Compile-scaling benchmark (``python -m repro.bench.scale``).

Measures how HLO planning cost grows with program size under each
inlining strategy (docs/performance.md "Inlining strategies").  Two
generated tiers — *small* and *mega* (``workloads/generator.py`` with
``extern_window``, so a 1000-module program generates in O(modules)
and stays statically reachable through its spine while only the
trailing window ever executes) — are trained once per tier, then HLO
runs over a fresh compile per strategy, recording:

- **strategy-stage wall** (``HLOReport.strategy_wall_s``): the wall of
  exactly the planning + transform section the ``strategy`` knob
  selects.  The shared input/output scalar stages cost the same under
  every strategy and would drown the comparison.
- **strategy-stage allocation peak** (``strategy_peak_bytes`` under a
  tracemalloc trace), plus ``resource.getrusage`` ``ru_maxrss`` as a
  whole-process spot check.  ``ru_maxrss`` is monotonic for the life
  of the process, so only the resettable tracemalloc peak can be
  compared across measurements inside one run.
- **sites considered** and transforms performed — the deterministic
  witness: the demand planner's site count tracks the (constant) hot
  footprint while the global planner's tracks program size.

The gates, recorded with their inputs in the report:

- *sublinearity*: for wall, allocation peak, and sites considered, the
  demand strategy's small→mega growth factor must stay below the
  global strategy's times a safety fraction (the sites gate is
  deterministic; the wall and peak gates need tiers far enough apart
  for timing ratios to be signal, as in the CI ``scale-smoke`` job).
- *cycles parity*: on the real suite workloads (compress/sc/vortex by
  default) a demand build's achieved simulated cycles must stay within
  ``MAX_PARITY_RATIO`` of the global build's — scaling must not cost
  performance where it matters.

``repro bench-scale`` wires this up: ``--output`` writes the report
(``repro.obs.validate.validate_scale`` checks its schema) and
``--summary-out`` renders the per-strategy table for
``$GITHUB_STEP_SUMMARY``.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
import tracemalloc
from typing import List, Optional, Sequence, Tuple

SCALE_SEED = 7
DEFAULT_SMALL_MODULES = 40
DEFAULT_MEGA_MODULES = 1000
DEFAULT_FUNCS_PER_MODULE = 4
DEFAULT_EXTERN_WINDOW = 8
DEFAULT_PARITY_WORKLOADS = ("compress", "sc", "vortex")
PARITY_SCOPE = "cp"
STRATEGIES = ("global", "demand")

# Sublinearity: demand growth factor must stay below global's times
# this fraction.  Measured headroom is large (demand tracks the
# constant hot footprint), so these are not tight.
MAX_WALL_GROWTH_FRACTION = 0.75
MAX_PEAK_GROWTH_FRACTION = 0.9
MAX_SITES_GROWTH_FRACTION = 0.5
# Cycles parity: demand cycles <= global cycles * this ratio.
MAX_PARITY_RATIO = 1.05


def _ru_maxrss_mb() -> float:
    """Whole-process peak RSS in MB (sticky: monotonic per process)."""
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return round(peak / divisor, 1)


def _measure_tier(
    n_modules: int,
    funcs_per_module: int,
    extern_window: int,
    seed: int,
) -> dict:
    """Generate, train once, then run HLO per strategy on fresh compiles."""
    from ..frontend.driver import compile_program
    from ..linker.toolchain import Toolchain
    from ..profile.annotate import annotate_program
    from ..core.config import HLOConfig
    from ..core.hlo import run_hlo
    from ..workloads.generator import generate_sources

    n_globals = max(4, n_modules // 4)
    sources = generate_sources(
        seed, n_modules=n_modules, funcs_per_module=funcs_per_module,
        n_globals=n_globals, extern_window=extern_window,
    )

    started = time.perf_counter()
    toolchain = Toolchain(sources, train_inputs=[[]], jobs=1)
    profile, _units = toolchain._train()
    train_wall = time.perf_counter() - started

    tier = {
        "n_modules": n_modules,
        "funcs_per_module": funcs_per_module,
        "n_globals": n_globals,
        "train_wall_s": round(train_wall, 4),
        "strategies": {},
    }
    for strategy in STRATEGIES:
        started = time.perf_counter()
        program = compile_program(sources)
        frontend_wall = time.perf_counter() - started
        annotate_program(program, profile)
        config = HLOConfig(strategy=strategy).with_scope(True, True)
        gc.collect()
        tracemalloc.start()
        started = time.perf_counter()
        report = run_hlo(
            program, config, site_counts=profile.site_counts,
            context_counts=profile.context_view(),
        )
        hlo_wall = time.perf_counter() - started
        tracemalloc.stop()
        tier["strategies"][strategy] = {
            "strategy_wall_s": round(report.strategy_wall_s, 4),
            "strategy_peak_kb": round(report.strategy_peak_bytes / 1024.0, 1),
            "hlo_wall_s": round(hlo_wall, 4),
            "frontend_wall_s": round(frontend_wall, 4),
            "sites_considered": report.sites_considered,
            "transforms": report.transform_count,
            "regions_formed": report.regions_formed,
            "region_budget_exhausted": report.region_budget_exhausted,
            "final_procs": sum(1 for _ in program.all_procs()),
            "final_size": program.size(),
            "ru_maxrss_mb": _ru_maxrss_mb(),
        }
    return tier


def _measure_parity(names: Sequence[str], scope: str) -> dict:
    """Suite workloads built under both strategies; cycles compared."""
    from ..core.config import HLOConfig
    from ..linker.toolchain import Toolchain
    from ..workloads.suite import get_workload

    parity = {}
    for name in names:
        workload = get_workload(name)
        entry = {}
        for strategy in STRATEGIES:
            toolchain = Toolchain(
                list(workload.sources),
                train_inputs=[list(t) for t in workload.train_inputs],
                config=HLOConfig(strategy=strategy),
                jobs=1,
            )
            result = toolchain.build(scope)
            metrics, _run = result.run(workload.ref_input)
            entry["{}_cycles".format(strategy)] = round(metrics.cycles, 2)
            entry["{}_sites".format(strategy)] = result.report.sites_considered
        entry["ratio"] = round(
            entry["demand_cycles"] / entry["global_cycles"], 4
        ) if entry["global_cycles"] else 0.0
        parity[name] = entry
    return parity


def _growth(tiers: dict, strategy: str, key: str) -> float:
    small = tiers["small"]["strategies"][strategy][key]
    mega = tiers["mega"]["strategies"][strategy][key]
    if not small:
        return 0.0
    return round(mega / small, 3)


def run_scale(
    small_modules: int = DEFAULT_SMALL_MODULES,
    mega_modules: int = DEFAULT_MEGA_MODULES,
    funcs_per_module: int = DEFAULT_FUNCS_PER_MODULE,
    extern_window: int = DEFAULT_EXTERN_WINDOW,
    seed: int = SCALE_SEED,
    parity_workloads: Sequence[str] = DEFAULT_PARITY_WORKLOADS,
) -> Tuple[dict, List[str]]:
    """The full scaling measurement; returns (report, failures)."""
    failures: List[str] = []
    tiers = {
        "small": _measure_tier(small_modules, funcs_per_module,
                               extern_window, seed),
        "mega": _measure_tier(mega_modules, funcs_per_module,
                              extern_window, seed),
    }
    growth = {
        strategy: {
            "strategy_wall": _growth(tiers, strategy, "strategy_wall_s"),
            "strategy_peak": _growth(tiers, strategy, "strategy_peak_kb"),
            "sites_considered": _growth(tiers, strategy, "sites_considered"),
        }
        for strategy in STRATEGIES
    }

    def ratio(key: str) -> float:
        if not growth["global"][key]:
            return 0.0
        return round(growth["demand"][key] / growth["global"][key], 3)

    ratios = {
        "wall_growth_ratio": ratio("strategy_wall"),
        "peak_growth_ratio": ratio("strategy_peak"),
        "sites_growth_ratio": ratio("sites_considered"),
    }

    gates = {
        "sites_sublinear": ratios["sites_growth_ratio"] < MAX_SITES_GROWTH_FRACTION,
        "wall_sublinear": ratios["wall_growth_ratio"] < MAX_WALL_GROWTH_FRACTION,
        "peak_sublinear": ratios["peak_growth_ratio"] < MAX_PEAK_GROWTH_FRACTION,
    }
    if not gates["sites_sublinear"]:
        failures.append(
            "scale: demand sites-considered growth ratio {:.3f} not below "
            "{:.2f} of global's".format(
                ratios["sites_growth_ratio"], MAX_SITES_GROWTH_FRACTION
            )
        )
    if not gates["wall_sublinear"]:
        failures.append(
            "scale: demand strategy-wall growth ratio {:.3f} not below "
            "{:.2f} of global's".format(
                ratios["wall_growth_ratio"], MAX_WALL_GROWTH_FRACTION
            )
        )
    if not gates["peak_sublinear"]:
        failures.append(
            "scale: demand allocation-peak growth ratio {:.3f} not below "
            "{:.2f} of global's".format(
                ratios["peak_growth_ratio"], MAX_PEAK_GROWTH_FRACTION
            )
        )

    parity = _measure_parity(parity_workloads, PARITY_SCOPE)
    parity_ok = True
    for name, entry in parity.items():
        if entry["ratio"] > MAX_PARITY_RATIO:
            parity_ok = False
            failures.append(
                "scale: {} demand cycles {:.2f} exceed global {:.2f} by "
                "more than {:.0f}% (ratio {:.3f})".format(
                    name, entry["demand_cycles"], entry["global_cycles"],
                    (MAX_PARITY_RATIO - 1) * 100, entry["ratio"],
                )
            )
    gates["cycles_parity"] = parity_ok

    section = {
        "seed": seed,
        "extern_window": extern_window,
        "module_growth": round(mega_modules / small_modules, 2),
        "tiers": tiers,
        "growth": growth,
        "ratios": ratios,
        "parity": parity,
        "gates": gates,
        "limits": {
            "max_wall_growth_fraction": MAX_WALL_GROWTH_FRACTION,
            "max_peak_growth_fraction": MAX_PEAK_GROWTH_FRACTION,
            "max_sites_growth_fraction": MAX_SITES_GROWTH_FRACTION,
            "max_parity_ratio": MAX_PARITY_RATIO,
        },
    }
    return section, failures


def step_summary(section: dict, failures: Sequence[str]) -> str:
    """A GitHub step-summary Markdown view of one scale report."""
    tiers = section.get("tiers", {})
    lines = [
        "## Bench scale ({}x module growth, window {})".format(
            section.get("module_growth", "?"), section.get("extern_window", "?")
        ),
        "",
        "| tier | strategy | stage wall (s) | stage peak (KB) | sites "
        "| transforms | RSS spot (MB) |",
        "|---|---|---:|---:|---:|---:|---:|",
    ]
    for tier_name in ("small", "mega"):
        tier = tiers.get(tier_name, {})
        for strategy, entry in sorted(tier.get("strategies", {}).items()):
            lines.append(
                "| {} ({} mod) | {} | {:.3f} | {:.1f} | {:,} | {} "
                "| {:.1f} |".format(
                    tier_name, tier.get("n_modules", "?"), strategy,
                    entry.get("strategy_wall_s", 0.0),
                    entry.get("strategy_peak_kb", 0.0),
                    entry.get("sites_considered", 0),
                    entry.get("transforms", 0),
                    entry.get("ru_maxrss_mb", 0.0),
                )
            )
    ratios = section.get("ratios", {})
    lines += [
        "",
        "- growth ratios (demand/global, small→mega): wall {}, "
        "allocation peak {}, sites {}".format(
            ratios.get("wall_growth_ratio", "?"),
            ratios.get("peak_growth_ratio", "?"),
            ratios.get("sites_growth_ratio", "?"),
        ),
    ]
    parity = section.get("parity", {})
    if parity:
        pieces = [
            "{} {:.3f}".format(name, entry.get("ratio", 0.0))
            for name, entry in sorted(parity.items())
        ]
        lines.append(
            "- cycles parity (demand/global, ceiling {:.2f}): {}".format(
                section.get("limits", {}).get("max_parity_ratio",
                                              MAX_PARITY_RATIO),
                ", ".join(pieces),
            )
        )
    if failures:
        lines += ["", "### Failures", ""]
        lines += ["- `{}`".format(failure) for failure in failures]
    else:
        lines += ["", "All scale gates green."]
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.scale",
        description="compile-scaling benchmark: global vs demand strategy",
    )
    parser.add_argument("--small", type=int, default=DEFAULT_SMALL_MODULES,
                        metavar="N", help="small-tier module count")
    parser.add_argument("--mega", type=int, default=DEFAULT_MEGA_MODULES,
                        metavar="N", help="mega-tier module count")
    parser.add_argument("--funcs-per-module", type=int,
                        default=DEFAULT_FUNCS_PER_MODULE, metavar="N")
    parser.add_argument("--window", type=int, default=DEFAULT_EXTERN_WINDOW,
                        metavar="K", help="generator extern visibility window")
    parser.add_argument("--seed", type=int, default=SCALE_SEED)
    parser.add_argument("--parity-workloads",
                        default=",".join(DEFAULT_PARITY_WORKLOADS),
                        help="comma-separated suite workloads for the "
                        "cycles-parity gate")
    parser.add_argument("--output", metavar="FILE",
                        help="write the scale report as JSON here")
    parser.add_argument("--summary-out", metavar="FILE",
                        help="append a Markdown summary table here "
                        "(point at $GITHUB_STEP_SUMMARY in CI)")
    args = parser.parse_args(argv)

    names = [p.strip() for p in args.parity_workloads.split(",") if p.strip()]
    section, failures = run_scale(
        small_modules=args.small,
        mega_modules=args.mega,
        funcs_per_module=args.funcs_per_module,
        extern_window=args.window,
        seed=args.seed,
        parity_workloads=names,
    )

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(section, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote", args.output)
    if args.summary_out:
        with open(args.summary_out, "a") as handle:
            handle.write(step_summary(section, failures))
        print("appended summary to", args.summary_out)

    growth = section["growth"]
    for strategy in STRATEGIES:
        print(
            "scale: {:<6} growth small→mega: wall x{}, peak x{}, "
            "sites x{}".format(
                strategy, growth[strategy]["strategy_wall"],
                growth[strategy]["strategy_peak"],
                growth[strategy]["sites_considered"],
            )
        )
    print(
        "scale: demand/global growth ratios: wall {}, peak {}, sites {}".format(
            section["ratios"]["wall_growth_ratio"],
            section["ratios"]["peak_growth_ratio"],
            section["ratios"]["sites_growth_ratio"],
        )
    )
    for name, entry in sorted(section["parity"].items()):
        print(
            "scale: parity {}: global {:.2f} vs demand {:.2f} cycles "
            "(ratio {:.3f})".format(
                name, entry["global_cycles"], entry["demand_cycles"],
                entry["ratio"],
            )
        )
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
