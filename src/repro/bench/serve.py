"""Load generator for the build daemon: hundreds of synthetic clients.

``repro bench-serve`` drives a mixed build/rebuild/run workload against
a daemon — an in-process one by default, or a running ``repro serve``
via ``--connect`` (the CI round trip) — and reports latency
percentiles, throughput, and the scheduler's dedupe/shed counters.

The traffic has three phases, each a barrier so the interesting
contention actually happens:

1. **stampede** — every client concurrently requests the *same* build
   of its workload.  Only one build per distinct key may execute; the
   rest must join in flight (``dedupe_hits``) or hit the finished-build
   LRU.  These are the cold-build latencies.
2. **warm rebuild** — every client asks again.  All of these should be
   LRU hits; their latencies are the warm-rebuild distribution the
   warm-path gate watches.
3. **mixed** — every client issues a ``run`` request and a *variant*
   build (a distinct budget per client group), cold keys mid-run like
   a real fleet's config drift.

Gates (the CI ``serve-smoke`` job runs them with 200 clients against
a real ``repro serve`` process, on compress, sc and vortex):
identical in-flight builds deduped (``dedupe_hits`` counter-asserted),
zero failed requests, warm-rebuild p95 under the cold-build p50, and
byte-identical artifacts vs a cold CLI build of the same module set.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..interp.interpreter import DEFAULT_ENGINE
from ..linker.isom import to_isom_text
from ..linker.toolchain import Toolchain
from ..serve.client import AsyncServeClient, ServeRequestError, parse_address
from ..serve.server import ReproServer
from ..serve.state import ServerState, artifact_checksum
from ..workloads.suite import get_workload, workload_names

SERVE_BENCH_SCHEMA = 1

DEFAULT_CLIENTS = 200
DEFAULT_WORKLOADS = ("compress", "sc")
# Clients per distinct variant-build config in the mixed phase.
VARIANT_GROUP = 8


@dataclass
class BenchConfig:
    clients: int = DEFAULT_CLIENTS
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    scope: str = "c"
    engine: str = ""
    connect: Optional[str] = None  # HOST:PORT of a running daemon
    connect_retry_s: float = 15.0
    concurrency: int = 4  # in-process server's build threads
    max_pending: int = 64  # in-process server's queue bound
    request_timeout: float = 120.0
    jobs: Optional[int] = None  # in-process server's compile jobs


@dataclass
class _Recorder:
    latency_ms: List[float] = field(default_factory=list)
    cold_build_ms: List[float] = field(default_factory=list)
    warm_rebuild_ms: List[float] = field(default_factory=list)
    run_ms: List[float] = field(default_factory=list)
    checksums: Dict[str, set] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    busy: int = 0
    requests: int = 0


def _percentile(samples: Sequence[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _dist(samples: Sequence[float]) -> dict:
    return {
        "count": len(samples),
        "p50": round(_percentile(samples, 0.50), 3),
        "p95": round(_percentile(samples, 0.95), 3),
        "p99": round(_percentile(samples, 0.99), 3),
        "max": round(max(samples), 3) if samples else 0.0,
    }


async def _one_request(
    client: AsyncServeClient,
    payload: dict,
    recorder: _Recorder,
    workload: str,
) -> None:
    started = time.perf_counter()
    recorder.requests += 1
    try:
        response = await client.request(payload)
    except ServeRequestError as exc:
        if exc.status == "busy":
            recorder.busy += 1
        else:
            recorder.errors.append("{}: {}".format(payload.get("op"), exc))
        return
    except (ConnectionError, OSError) as exc:
        recorder.errors.append("{}: {}".format(payload.get("op"), exc))
        return
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    recorder.latency_ms.append(elapsed_ms)
    op = response.get("op")
    if op == "build":
        if response.get("cached"):
            recorder.warm_rebuild_ms.append(elapsed_ms)
        else:
            recorder.cold_build_ms.append(elapsed_ms)
        if payload.get("budget_percent") is None:
            recorder.checksums.setdefault(workload, set()).add(
                response.get("checksum")
            )
    elif op == "run":
        recorder.run_ms.append(elapsed_ms)


async def _run_bench(cfg: BenchConfig) -> Tuple[dict, List[str]]:
    server: Optional[ReproServer] = None
    serve_task = None
    if cfg.connect is not None:
        host, port = parse_address(cfg.connect)
    else:
        server = ReproServer(
            ServerState(jobs=cfg.jobs),
            port=0,
            concurrency=cfg.concurrency,
            max_pending=cfg.max_pending,
            request_timeout=cfg.request_timeout,
        )
        await server.start()
        serve_task = asyncio.ensure_future(server.serve_until_shutdown())
        host, port = server.host, server.port

    workloads = {name: get_workload(name) for name in cfg.workloads}
    sources = {
        name: [list(pair) for pair in wl.sources]
        for name, wl in workloads.items()
    }
    assigned = [
        cfg.workloads[i % len(cfg.workloads)] for i in range(cfg.clients)
    ]

    recorder = _Recorder()
    deadline_retry = cfg.connect_retry_s if cfg.connect is not None else 0.0
    clients: List[AsyncServeClient] = []
    try:
        for _ in range(cfg.clients):
            attempt_until = time.monotonic() + deadline_retry
            while True:
                try:
                    clients.append(await AsyncServeClient.connect(host, port))
                    break
                except OSError:
                    if time.monotonic() >= attempt_until:
                        raise
                    await asyncio.sleep(0.2)

        started = time.perf_counter()

        def build_payload(index: int, budget: Optional[float] = None) -> dict:
            payload = {
                "op": "build",
                "sources": sources[assigned[index]],
                "scope": cfg.scope,
                "timeout": cfg.request_timeout,
            }
            if cfg.engine:
                payload["engine"] = cfg.engine
            if budget is not None:
                payload["budget_percent"] = budget
            return payload

        # Phase 1: stampede — identical concurrent cold builds.
        await asyncio.gather(*[
            _one_request(clients[i], build_payload(i), recorder, assigned[i])
            for i in range(cfg.clients)
        ])
        # Phase 2: warm rebuilds — every one an LRU hit.
        await asyncio.gather(*[
            _one_request(clients[i], build_payload(i), recorder, assigned[i])
            for i in range(cfg.clients)
        ])
        # Phase 3: mixed run + cold variant-build traffic.
        run_payloads = []
        for i in range(cfg.clients):
            wl = workloads[assigned[i]]
            run_payloads.append({
                "op": "run",
                "sources": sources[assigned[i]],
                "scope": cfg.scope,
                "inputs": list(wl.ref_input),
                "timeout": cfg.request_timeout,
            })
        await asyncio.gather(*[
            _one_request(clients[i], run_payloads[i], recorder, assigned[i])
            for i in range(cfg.clients)
        ])
        await asyncio.gather(*[
            _one_request(
                clients[i],
                build_payload(i, budget=90.0 - (i // VARIANT_GROUP)),
                recorder,
                assigned[i],
            )
            for i in range(cfg.clients)
        ])
        wall_s = time.perf_counter() - started

        stats = await clients[0].stats()
    finally:
        for client in clients:
            try:
                await client.close()
            except Exception:
                pass
        if server is not None:
            server.request_shutdown()
            await serve_task

    # Byte-identity: a cold CLI build of the same module set must hash
    # to exactly what the daemon served.
    local_checksums = {}
    for name, wl in workloads.items():
        cold = Toolchain(
            [list(pair) for pair in wl.sources], jobs=1,
            engine=cfg.engine or DEFAULT_ENGINE,
        ).build(cfg.scope)
        local_checksums[name] = artifact_checksum({
            mod.name: to_isom_text(mod)
            for mod in cold.program.modules.values()
        })
    artifacts_identical = all(
        recorder.checksums.get(name) == {local_checksums[name]}
        for name in workloads
    )

    scheduler = stats["scheduler"]
    state = stats["state"]
    report = {
        "schema": SERVE_BENCH_SCHEMA,
        "clients": cfg.clients,
        "workloads": list(cfg.workloads),
        "scope": cfg.scope,
        "engine": cfg.engine or DEFAULT_ENGINE,
        "connect": cfg.connect,
        "requests": recorder.requests,
        "errors": len(recorder.errors),
        "busy": recorder.busy,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(recorder.requests / wall_s, 2) if wall_s else 0.0,
        "latency_ms": _dist(recorder.latency_ms),
        "cold_build_ms": _dist(recorder.cold_build_ms),
        "warm_rebuild_ms": _dist(recorder.warm_rebuild_ms),
        "run_ms": _dist(recorder.run_ms),
        "builds": state["builds"],
        "result_hits": state["result_hits"],
        "dedupe_hits": scheduler["dedupe_hits"],
        "shed": scheduler["shed"],
        "timeouts": scheduler["timeouts"],
        "server_requests": stats["requests"],
        "artifacts_identical": artifacts_identical,
    }

    failures = check_serve_report(report)
    for error in recorder.errors[:10]:
        failures.append("serve: request failed: {}".format(error))
    return report, failures


def check_serve_report(report: dict) -> List[str]:
    """The gates: what must hold for any healthy serve bench run."""
    failures: List[str] = []
    if report["errors"]:
        failures.append(
            "serve: {} request(s) failed outright".format(report["errors"])
        )
    if report["dedupe_hits"] < 1:
        failures.append(
            "serve: identical concurrent builds were never deduped "
            "(dedupe_hits={})".format(report["dedupe_hits"])
        )
    if not report["artifacts_identical"]:
        failures.append(
            "serve: daemon artifacts differ from a cold CLI build "
            "of the same module set"
        )
    warm = report["warm_rebuild_ms"]
    cold = report["cold_build_ms"]
    if warm["count"] >= 5 and cold["count"] >= 2 and warm["p95"] >= cold["p50"]:
        failures.append(
            "serve: warm rebuild p95 {:.1f}ms not under cold build p50 "
            "{:.1f}ms — the warm path isn't warm".format(
                warm["p95"], cold["p50"]
            )
        )
    return failures


def run_serve_bench(
    clients: int = DEFAULT_CLIENTS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    scope: str = "c",
    engine: str = "",
    connect: Optional[str] = None,
    jobs: Optional[int] = None,
    concurrency: int = 4,
    max_pending: int = 64,
    request_timeout: float = 120.0,
) -> Tuple[dict, List[str]]:
    """Run the bench; returns ``(report, gate_failures)``."""
    cfg = BenchConfig(
        clients=clients,
        workloads=tuple(workloads),
        scope=scope,
        engine=engine,
        connect=connect,
        jobs=jobs,
        concurrency=concurrency,
        max_pending=max_pending,
        request_timeout=request_timeout,
    )
    return asyncio.run(_run_bench(cfg))


def summary_lines(report: dict) -> List[str]:
    return [
        "serve bench: {} clients x {} -> {} requests in {:.2f}s "
        "({:.0f} req/s)".format(
            report["clients"],
            "/".join(report["workloads"]),
            report["requests"],
            report["wall_s"],
            report["throughput_rps"],
        ),
        "  latency ms: p50 {:.1f}  p95 {:.1f}  p99 {:.1f}".format(
            report["latency_ms"]["p50"],
            report["latency_ms"]["p95"],
            report["latency_ms"]["p99"],
        ),
        "  cold build p50 {:.1f}ms  warm rebuild p95 {:.1f}ms".format(
            report["cold_build_ms"]["p50"],
            report["warm_rebuild_ms"]["p95"],
        ),
        "  builds {}  dedupe {}  warm-lru {}  shed {}  errors {}".format(
            report["builds"],
            report["dedupe_hits"],
            report["result_hits"],
            report["shed"],
            report["errors"],
        ),
        "  artifacts identical to cold CLI build: {}".format(
            "yes" if report["artifacts_identical"] else "NO"
        ),
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.serve",
        description="Load-generate a repro build daemon and gate its "
        "latency/dedupe/artifact behaviour.",
    )
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument(
        "--workloads",
        default=",".join(DEFAULT_WORKLOADS),
        help="comma-separated workload names ({})".format(
            ", ".join(workload_names())
        ),
    )
    parser.add_argument("--scope", default="c", choices=("base", "c", "p", "cp"))
    parser.add_argument("--engine", default="")
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="drive a running daemon instead of an in-process one",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="compile workers for the in-process server",
    )
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--max-pending", type=int, default=64)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--output", default=None, metavar="FILE")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    report, failures = run_serve_bench(
        clients=args.clients,
        workloads=[w for w in args.workloads.split(",") if w],
        scope=args.scope,
        engine=args.engine,
        connect=args.connect,
        jobs=args.jobs,
        concurrency=args.concurrency,
        max_pending=args.max_pending,
        request_timeout=args.timeout,
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in summary_lines(report):
            print(line)
    for failure in failures:
        print("FAIL: {}".format(failure), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
