"""End-to-end fleet loop: the full seeded fault matrix, convergence, invariants."""

from __future__ import annotations

import pytest

from repro.fleet import FleetConfig, FleetLoop, jaccard
from repro.obs import BuildObserver, MetricsRegistry
from repro.resilience import SHARD_FAULTS, FaultInjector
from repro.workloads.suite import get_workload

from .conftest import REF_INPUT, SOURCES, TRAIN_INPUTS

# The canonical seeded fault matrix (the CI fleet-smoke job runs the
# same flags on compress, sc and vortex with --assert-convergence):
# every transit fault at 25%, a torn WAL tail, a mid-swap crash, an
# injected canary trap on the first rebuild, and a flapping instance.
def full_matrix_injector(seed=7):
    return FaultInjector(
        seed=seed,
        shard_faults=SHARD_FAULTS,
        shard_fault_rate=0.25,
        wal_tail_rounds=(3,),
        kill_mid_swap_epochs=(1,),
        canary_trap_epochs=(1,),
        flap_sources=("inst0",),
    )


def test_jaccard_edges():
    assert jaccard(set(), set()) == 1.0
    assert jaccard({1}, set()) == 0.0
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)


def test_faultless_loop_converges_and_swaps(sources, tmp_path):
    loop = FleetLoop(
        sources, TRAIN_INPUTS, REF_INPUT,
        config=FleetConfig(rounds=4, seed=1),
        spool_path=str(tmp_path / "shards.wal"),
    )
    report = loop.run()
    assert report.converged and report.convergence_jaccard == 1.0
    assert report.swaps >= 1 and report.rollbacks == 0
    assert report.final_build > 0
    assert report.shards_sent > 0 and report.shards_accepted > 0


def test_full_fault_matrix_on_synthetic_program(sources, tmp_path):
    injector = full_matrix_injector()
    loop = FleetLoop(
        sources, TRAIN_INPUTS, REF_INPUT,
        config=FleetConfig(rounds=10, seed=7),
        injector=injector,
        spool_path=str(tmp_path / "shards.wal"),
    )
    report = loop.run()
    # The loop survived everything, rolled back the sabotaged build,
    # and still landed on the exact-profile decisions.
    assert report.convergence_jaccard == 1.0
    assert report.rollbacks >= 1 and report.swaps >= 1
    assert report.quarantined_epochs
    assert not set(report.served_builds) & set(report.rolled_back)
    assert report.wal_truncations >= 1
    assert report.collector_restarts >= 1
    assert report.instance_restarts >= 1
    assert report.shards_retried > 0
    assert injector.injected  # the plan actually fired


def test_full_fault_matrix_is_deterministic(sources, tmp_path):
    def run(tag):
        loop = FleetLoop(
            sources, TRAIN_INPUTS, REF_INPUT,
            config=FleetConfig(rounds=6, seed=7),
            injector=full_matrix_injector(),
            spool_path=str(tmp_path / "{}.wal".format(tag)),
        )
        report = loop.run()
        return (
            report.rebuilds, report.rollbacks, report.swaps,
            report.final_build, report.shards_sent, report.history,
        )

    assert run("a") == run("b")


def test_min_instances_floor_replicates_chunks(sources, tmp_path):
    # One training chunk, but a credible fleet: the floor cycles the
    # chunk across replicas so single-input workloads are not a
    # single point of failure.
    loop = FleetLoop(
        sources, [TRAIN_INPUTS[0]], REF_INPUT,
        config=FleetConfig(rounds=3, seed=2, min_instances=3),
        spool_path=str(tmp_path / "shards.wal"),
    )
    report = loop.run()
    assert report.converged
    assert report.shards_sent >= 3 * report.rounds_run - 2  # 3 replicas ship


def test_rolled_back_build_never_served_under_canary_trap(sources, tmp_path):
    injector = FaultInjector(seed=3, canary_trap_epochs=(1,))
    loop = FleetLoop(
        sources, TRAIN_INPUTS, REF_INPUT,
        config=FleetConfig(rounds=8, seed=3),
        injector=injector,
        spool_path=str(tmp_path / "shards.wal"),
    )
    report = loop.run()
    assert report.rollbacks == 1
    assert report.rolled_back == [1]
    assert 1 not in report.served_builds
    assert report.convergence_jaccard == 1.0  # recovered after quarantine


def test_report_to_dict_and_metrics_are_numeric(sources, tmp_path):
    from repro.obs.validate import validate_metrics

    metrics = MetricsRegistry()
    loop = FleetLoop(
        sources, TRAIN_INPUTS, REF_INPUT,
        config=FleetConfig(rounds=3, seed=1),
        injector=full_matrix_injector(),
        observer=BuildObserver(metrics=metrics),
        spool_path=str(tmp_path / "shards.wal"),
    )
    report = loop.run()
    payload = report.to_dict()
    assert payload["shards"]["sent"] == report.shards_sent
    assert payload["wal"]["appended"] == report.wal_appended
    assert isinstance(payload["convergence_jaccard"], float)
    snapshot = metrics.to_dict()
    problems = validate_metrics(snapshot)
    assert problems == []
    fleet_names = [
        name
        for section in snapshot.values()
        if isinstance(section, dict)
        for name in section
        if str(name).startswith("fleet.")
    ]
    assert "fleet.shards_sent" in fleet_names
    assert "fleet.convergence_jaccard" in fleet_names


def test_wall_budget_stops_early(sources, tmp_path):
    loop = FleetLoop(
        sources, TRAIN_INPUTS, REF_INPUT,
        config=FleetConfig(rounds=50, seed=1, max_wall_s=0.0,
                           measure_convergence=False),
        spool_path=str(tmp_path / "shards.wal"),
    )
    report = loop.run()
    assert report.stopped_early
    assert report.rounds_run < 50


@pytest.mark.parametrize("name", ["compress"])
def test_canonical_matrix_on_workload(name, tmp_path):
    """The CI gate's scenario, on the cheapest real workload."""
    workload = get_workload(name)
    loop = FleetLoop(
        list(workload.sources), workload.train_inputs, workload.ref_input,
        config=FleetConfig(rounds=10, seed=7),
        injector=full_matrix_injector(),
        spool_path=str(tmp_path / "shards.wal"),
    )
    report = loop.run()
    assert report.convergence_jaccard == 1.0
    assert report.rollbacks >= 1
    assert not set(report.served_builds) & set(report.rolled_back)
