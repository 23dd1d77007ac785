"""Schema validation for observability outputs (CI gate).

``python -m repro.obs.validate --trace T.json --metrics M.json
[--ledger L.jsonl] [--flame F.json] [--fleet-ledger FL.jsonl]
[--series S.jsonl] [--serve B.json]`` checks that the artifacts CI
uploads actually
parse and carry the fields their consumers (Perfetto, speedscope, the
bench dashboard, the ledger tooling) rely on.  Pure stdlib — the
checks are hand-rolled rather than jsonschema-based so the validator
runs in the bare CI image.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .fleetledger import ENTRY_KINDS
from .ledger import DECISIONS

_TRACE_PHASES = {"X", "i", "M", "B", "E", "C"}


def validate_trace(obj) -> List[str]:
    """Problems with a Chrome trace-event JSON object (empty = valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["trace: top level must be an object with 'traceEvents'"]
    events = obj["traceEvents"]
    if not isinstance(events, list) or not events:
        return ["trace: 'traceEvents' must be a non-empty list"]
    for index, event in enumerate(events):
        where = "trace: event[{}]".format(index)
        if not isinstance(event, dict):
            errors.append(where + " is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                errors.append("{} missing {!r}".format(where, key))
        phase = event.get("ph")
        if phase not in _TRACE_PHASES:
            errors.append("{} has unknown ph {!r}".format(where, phase))
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        "{} {} must be a non-negative number".format(where, key)
                    )
        if phase == "i" and "ts" not in event:
            errors.append(where + " instant missing 'ts'")
    return errors


def validate_metrics(obj) -> List[str]:
    """Problems with a ``--metrics-out`` JSON object (empty = valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["metrics: top level must be an object"]
    if not isinstance(obj.get("schema"), int):
        errors.append("metrics: missing integer 'schema'")
    for section in ("counters", "gauges"):
        table = obj.get(section)
        if not isinstance(table, dict):
            errors.append("metrics: missing object {!r}".format(section))
            continue
        for name, value in table.items():
            if not isinstance(value, (int, float)):
                errors.append(
                    "metrics: {}[{!r}] is not a number".format(section, name)
                )
    histograms = obj.get("histograms")
    if not isinstance(histograms, dict):
        errors.append("metrics: missing object 'histograms'")
    else:
        for name, summary in histograms.items():
            if not isinstance(summary, dict):
                errors.append("metrics: histogram {!r} is not an object".format(name))
                continue
            for key in ("count", "sum", "min", "max", "mean", "p50", "p95"):
                if not isinstance(summary.get(key), (int, float)):
                    errors.append(
                        "metrics: histogram {!r} missing numeric {!r}".format(
                            name, key
                        )
                    )
    return errors


def validate_ledger_jsonl(text: str) -> List[str]:
    """Problems with an ``--explain-inlining-out`` JSONL file."""
    errors: List[str] = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["ledger: file is empty"]
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        return ["ledger: header line is not JSON: {}".format(exc)]
    for key in ("schema", "considered", "decisions", "rejection_classes"):
        if key not in header:
            errors.append("ledger: header missing {!r}".format(key))
    entries = 0
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append("ledger: line {} is not JSON: {}".format(number, exc))
            continue
        entries += 1
        for key in ("phase", "pass", "caller", "callee", "site_id",
                    "decision", "reason", "reason_class"):
            if key not in record:
                errors.append(
                    "ledger: line {} missing {!r}".format(number, key)
                )
        if record.get("decision") not in DECISIONS:
            errors.append(
                "ledger: line {} has unknown decision {!r}".format(
                    number, record.get("decision")
                )
            )
    considered = header.get("considered")
    if isinstance(considered, int) and considered != entries:
        errors.append(
            "ledger: header says {} considered but file has {} entries".format(
                considered, entries
            )
        )
    return errors


def validate_flame(obj) -> List[str]:
    """Problems with a speedscope flamegraph JSON (empty = valid).

    Checks the subset of https://www.speedscope.app/file-format-schema.json
    the app actually needs to load a ``sampled`` profile: a shared
    frame table, and per-profile parallel ``samples``/``weights``
    arrays whose frame indices are in range.
    """
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["flame: top level must be an object"]
    if not isinstance(obj.get("$schema"), str):
        errors.append("flame: missing string '$schema'")
    shared = obj.get("shared")
    frames = shared.get("frames") if isinstance(shared, dict) else None
    if not isinstance(frames, list):
        errors.append("flame: missing 'shared.frames' list")
        frames = []
    for index, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(frame.get("name"), str):
            errors.append(
                "flame: shared.frames[{}] missing string 'name'".format(index)
            )
    profiles = obj.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        return errors + ["flame: missing non-empty 'profiles' list"]
    for pindex, profile in enumerate(profiles):
        where = "flame: profiles[{}]".format(pindex)
        if not isinstance(profile, dict):
            errors.append(where + " is not an object")
            continue
        if profile.get("type") != "sampled":
            errors.append(
                "{} has type {!r}, expected 'sampled'".format(
                    where, profile.get("type")
                )
            )
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            errors.append(where + " missing 'samples'/'weights' lists")
            continue
        if len(samples) != len(weights):
            errors.append(
                "{} has {} samples but {} weights".format(
                    where, len(samples), len(weights)
                )
            )
        for sindex, stack in enumerate(samples):
            if not isinstance(stack, list) or any(
                not isinstance(f, int) or not 0 <= f < len(frames)
                for f in stack
            ):
                errors.append(
                    "{} samples[{}] has out-of-range frame index".format(
                        where, sindex
                    )
                )
        for windex, weight in enumerate(weights):
            if not isinstance(weight, (int, float)) or weight < 0:
                errors.append(
                    "{} weights[{}] is not a non-negative number".format(
                        where, windex
                    )
                )
        for key in ("startValue", "endValue"):
            if not isinstance(profile.get(key), (int, float)):
                errors.append("{} missing numeric {!r}".format(where, key))
    return errors


def validate_fleet_ledger_jsonl(text: str) -> List[str]:
    """Problems with a ``repro fleet explain`` / ``--fleet-ledger-out``
    JSONL file (empty = valid)."""
    errors: List[str] = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["fleet-ledger: file is empty"]
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        return ["fleet-ledger: header line is not JSON: {}".format(exc)]
    for key in ("schema", "kind", "entries", "verdicts", "transitions",
                "decisions", "codes"):
        if key not in header:
            errors.append("fleet-ledger: header missing {!r}".format(key))
    if header.get("kind") != "fleet-ledger":
        errors.append(
            "fleet-ledger: header kind is {!r}".format(header.get("kind"))
        )
    counts = {kind: 0 for kind in ENTRY_KINDS}
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append(
                "fleet-ledger: line {} is not JSON: {}".format(number, exc)
            )
            continue
        kind = record.get("kind")
        if kind not in ENTRY_KINDS:
            errors.append(
                "fleet-ledger: line {} has unknown kind {!r}".format(
                    number, kind
                )
            )
            continue
        counts[kind] += 1
        for key in ("actor", "code"):
            if not isinstance(record.get(key), str):
                errors.append(
                    "fleet-ledger: line {} missing string {!r}".format(
                        number, key
                    )
                )
        if kind == "verdict" and not isinstance(record.get("accepted"), bool):
            errors.append(
                "fleet-ledger: line {} verdict missing bool 'accepted'".format(
                    number
                )
            )
    # Completeness: the header totals must equal what the file holds.
    for key, kind in (("verdicts", "verdict"), ("transitions", "breaker"),
                      ("decisions", "decision")):
        declared = header.get(key)
        if isinstance(declared, int) and declared != counts[kind]:
            errors.append(
                "fleet-ledger: header says {} {} but file has {}".format(
                    declared, key, counts[kind]
                )
            )
    declared_total = header.get("entries")
    if isinstance(declared_total, int) and declared_total != len(lines) - 1:
        errors.append(
            "fleet-ledger: header says {} entries but file has {}".format(
                declared_total, len(lines) - 1
            )
        )
    return errors


def validate_series_jsonl(text: str) -> List[str]:
    """Problems with a ``--series-out`` JSONL file (empty = valid)."""
    errors: List[str] = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["series: file is empty"]
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        return ["series: header line is not JSON: {}".format(exc)]
    if not isinstance(header.get("schema"), int):
        errors.append("series: header missing integer 'schema'")
    if header.get("kind") != "series":
        errors.append("series: header kind is {!r}".format(header.get("kind")))
    declared = header.get("series")
    if not isinstance(declared, dict):
        errors.append("series: header missing object 'series'")
        declared = {}
    for name, meta in declared.items():
        if not isinstance(meta, dict):
            errors.append("series: header[{!r}] is not an object".format(name))
            continue
        for key in ("points", "dropped", "capacity"):
            if not isinstance(meta.get(key), int):
                errors.append(
                    "series: header[{!r}] missing integer {!r}".format(
                        name, key
                    )
                )
    counts = {name: 0 for name in declared}
    last_tick = {}
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append("series: line {} is not JSON: {}".format(number, exc))
            continue
        name = record.get("series")
        if not isinstance(name, str):
            errors.append(
                "series: line {} missing string 'series'".format(number)
            )
            continue
        if name not in declared:
            errors.append(
                "series: line {} names undeclared series {!r}".format(
                    number, name
                )
            )
        tick = record.get("tick")
        if not isinstance(tick, int):
            errors.append("series: line {} missing integer 'tick'".format(number))
        elif name in last_tick and tick < last_tick[name]:
            errors.append(
                "series: line {} ticks go backwards for {!r}".format(
                    number, name
                )
            )
        else:
            last_tick[name] = tick
        if not isinstance(record.get("value"), (int, float)):
            errors.append(
                "series: line {} missing numeric 'value'".format(number)
            )
        if name in counts:
            counts[name] += 1
    for name, meta in declared.items():
        points = meta.get("points") if isinstance(meta, dict) else None
        if isinstance(points, int) and points != counts.get(name, 0):
            errors.append(
                "series: header says {} points for {!r} but file has {}".format(
                    points, name, counts.get(name, 0)
                )
            )
    return errors


def validate_bench(obj) -> List[str]:
    """Problems with a schema-10 ``BENCH_smoke.json`` report (empty = valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["bench: top level must be an object"]
    if not isinstance(obj.get("schema"), int):
        errors.append("bench: missing integer 'schema'")
    workloads = obj.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        errors.append("bench: missing non-empty object 'workloads'")
    else:
        for name, entry in workloads.items():
            where = "bench: workloads[{!r}]".format(name)
            if not isinstance(entry, dict):
                errors.append(where + " is not an object")
                continue
            for key in ("compile_units", "cycles", "wall_s"):
                if not isinstance(entry.get(key), (int, float)):
                    errors.append("{} missing numeric {!r}".format(where, key))
            if not isinstance(entry.get("checksum"), str):
                errors.append(where + " missing string 'checksum'")
    for section in ("totals", "build", "cache", "observability"):
        if not isinstance(obj.get(section), dict):
            errors.append("bench: missing object {!r}".format(section))
    interp = obj.get("interp")
    if not isinstance(interp, dict):
        errors.append("bench: missing object 'interp'")
    else:
        if not isinstance(interp.get("engine"), str):
            errors.append("bench: interp missing string 'engine'")
        for key in ("min_speedup", "mean_speedup", "plans_compiled",
                    "plan_cache_hits"):
            if not isinstance(interp.get(key), (int, float)):
                errors.append("bench: interp missing numeric {!r}".format(key))
        per = interp.get("workloads")
        if not isinstance(per, dict) or not per:
            errors.append("bench: interp missing non-empty object 'workloads'")
        else:
            for name, entry in per.items():
                where = "bench: interp.workloads[{!r}]".format(name)
                if not isinstance(entry, dict):
                    errors.append(where + " is not an object")
                    continue
                for key in ("steps", "steps_per_sec",
                            "reference_steps_per_sec", "speedup"):
                    if not isinstance(entry.get(key), (int, float)):
                        errors.append(
                            "{} missing numeric {!r}".format(where, key)
                        )
                speedup = entry.get("speedup")
                if isinstance(speedup, (int, float)) and speedup <= 0:
                    errors.append(
                        "{} speedup {} is not positive".format(where, speedup)
                    )
    return errors


def validate_scale(obj) -> List[str]:
    """Problems with a ``bench-scale --output`` report (empty = valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["scale: top level must be an object"]
    tiers = obj.get("tiers")
    if not isinstance(tiers, dict) or not tiers:
        errors.append("scale: missing non-empty object 'tiers'")
    else:
        for tier, entry in tiers.items():
            where = "scale: tiers[{!r}]".format(tier)
            if not isinstance(entry, dict):
                errors.append(where + " is not an object")
                continue
            if not isinstance(entry.get("n_modules"), int):
                errors.append(where + " missing integer 'n_modules'")
            strategies = entry.get("strategies")
            if not isinstance(strategies, dict) or not strategies:
                errors.append(where + " missing non-empty object 'strategies'")
                continue
            for strategy, measured in strategies.items():
                inner = "{}.strategies[{!r}]".format(where, strategy)
                if not isinstance(measured, dict):
                    errors.append(inner + " is not an object")
                    continue
                for key in ("strategy_wall_s", "strategy_peak_kb",
                            "sites_considered", "transforms", "final_size"):
                    if not isinstance(measured.get(key), (int, float)):
                        errors.append(
                            "{} missing numeric {!r}".format(inner, key)
                        )
    ratios = obj.get("ratios")
    if not isinstance(ratios, dict):
        errors.append("scale: missing object 'ratios'")
    else:
        for key in ("wall_growth_ratio", "peak_growth_ratio",
                    "sites_growth_ratio"):
            if not isinstance(ratios.get(key), (int, float)):
                errors.append("scale: ratios missing numeric {!r}".format(key))
    parity = obj.get("parity")
    if not isinstance(parity, dict) or not parity:
        errors.append("scale: missing non-empty object 'parity'")
    else:
        for name, entry in parity.items():
            where = "scale: parity[{!r}]".format(name)
            if not isinstance(entry, dict):
                errors.append(where + " is not an object")
                continue
            for key in ("global_cycles", "demand_cycles", "ratio"):
                if not isinstance(entry.get(key), (int, float)):
                    errors.append("{} missing numeric {!r}".format(where, key))
            ratio = entry.get("ratio")
            if isinstance(ratio, (int, float)) and ratio <= 0:
                errors.append(
                    "{} ratio {} is not positive".format(where, ratio)
                )
    gates = obj.get("gates")
    if not isinstance(gates, dict) or not gates:
        errors.append("scale: missing non-empty object 'gates'")
    else:
        for key, value in gates.items():
            if not isinstance(value, bool):
                errors.append(
                    "scale: gates[{!r}] {!r} is not a bool".format(key, value)
                )
    return errors


def validate_serve(obj) -> List[str]:
    """Problems with a ``bench-serve --output`` report (empty = valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["serve: top level must be an object"]
    for key in ("schema", "clients", "requests", "errors", "busy",
                "wall_s", "throughput_rps", "builds", "result_hits",
                "dedupe_hits", "shed", "timeouts", "server_requests"):
        if not isinstance(obj.get(key), (int, float)):
            errors.append("serve: missing numeric {!r}".format(key))
    if not isinstance(obj.get("workloads"), list) or not obj.get("workloads"):
        errors.append("serve: missing non-empty list 'workloads'")
    for key in ("latency_ms", "cold_build_ms", "warm_rebuild_ms", "run_ms"):
        dist = obj.get(key)
        if not isinstance(dist, dict):
            errors.append("serve: missing object {!r}".format(key))
            continue
        for stat in ("count", "p50", "p95", "p99", "max"):
            if not isinstance(dist.get(stat), (int, float)):
                errors.append(
                    "serve: {}.{} is not a number".format(key, stat)
                )
    if not isinstance(obj.get("artifacts_identical"), bool):
        errors.append("serve: missing bool 'artifacts_identical'")
    return errors


def _load_json(path: str, errors: List[str], label: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        errors.append("{}: cannot load {}: {}".format(label, path, exc))
        return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.validate",
        description="schema-validate observability artifacts",
    )
    parser.add_argument("--trace", metavar="FILE",
                        help="Chrome trace-event JSON to validate")
    parser.add_argument("--metrics", metavar="FILE",
                        help="metrics JSON to validate")
    parser.add_argument("--ledger", metavar="FILE",
                        help="inlining-ledger JSONL to validate")
    parser.add_argument("--bench", metavar="FILE",
                        help="BENCH_smoke.json report to validate")
    parser.add_argument("--flame", metavar="FILE",
                        help="speedscope flamegraph JSON to validate")
    parser.add_argument("--fleet-ledger", metavar="FILE",
                        help="fleet-ledger JSONL to validate")
    parser.add_argument("--series", metavar="FILE",
                        help="time-series JSONL to validate")
    parser.add_argument("--serve", metavar="FILE",
                        help="BENCH_serve.json load-bench report to validate")
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.ledger or args.bench
            or args.flame or args.fleet_ledger or args.series
            or args.serve):
        parser.error(
            "nothing to validate: pass --trace/--metrics/--ledger/--bench"
            "/--flame/--fleet-ledger/--series/--serve"
        )

    errors: List[str] = []
    if args.trace:
        obj = _load_json(args.trace, errors, "trace")
        if obj is not None:
            errors.extend(validate_trace(obj))
    if args.metrics:
        obj = _load_json(args.metrics, errors, "metrics")
        if obj is not None:
            errors.extend(validate_metrics(obj))
    if args.ledger:
        try:
            with open(args.ledger) as handle:
                errors.extend(validate_ledger_jsonl(handle.read()))
        except OSError as exc:
            errors.append("ledger: cannot load {}: {}".format(args.ledger, exc))
    if args.bench:
        obj = _load_json(args.bench, errors, "bench")
        if obj is not None:
            errors.extend(validate_bench(obj))
    if args.flame:
        obj = _load_json(args.flame, errors, "flame")
        if obj is not None:
            errors.extend(validate_flame(obj))
    if args.fleet_ledger:
        try:
            with open(args.fleet_ledger) as handle:
                errors.extend(validate_fleet_ledger_jsonl(handle.read()))
        except OSError as exc:
            errors.append(
                "fleet-ledger: cannot load {}: {}".format(args.fleet_ledger, exc)
            )
    if args.series:
        try:
            with open(args.series) as handle:
                errors.extend(validate_series_jsonl(handle.read()))
        except OSError as exc:
            errors.append("series: cannot load {}: {}".format(args.series, exc))
    if args.serve:
        obj = _load_json(args.serve, errors, "serve")
        if obj is not None:
            errors.extend(validate_serve(obj))

    for error in errors:
        print("FAIL:", error, file=sys.stderr)
    if not errors:
        print("observability artifacts valid")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
