"""Request/state split: validation, dedupe keys, wire twins, result LRU."""

from __future__ import annotations

import pytest

from repro.core.report import HLOReport, PassFailure, TransformEvent
from repro.linker.toolchain import Toolchain
from repro.serve.state import (
    BuildRequest,
    ServerState,
    artifact_checksum,
    deserialize_report,
    serialize_report,
)

from .conftest import REF_INPUT, SOURCES, TRAIN_INPUTS


def _payload(**over):
    payload = {
        "op": "build",
        "sources": [list(pair) for pair in SOURCES],
        "scope": "c",
    }
    payload.update(over)
    return payload


# ----------------------------------------------------------------------
# BuildRequest validation
# ----------------------------------------------------------------------


def test_from_payload_normalizes():
    request = BuildRequest.from_payload(
        _payload(train_inputs=[[5]], inputs=[7], ledger=True)
    )
    assert request.sources == tuple((n, t) for n, t in SOURCES)
    assert request.train_inputs == ((5,),)
    assert request.inputs == (7,)
    assert request.want_ledger is True


@pytest.mark.parametrize(
    "bad",
    [
        {"op": "train"},
        {"sources": []},
        {"sources": "main.c"},
        {"sources": [["main"]]},
        {"sources": [["main", 42]]},
        {"scope": "zz"},
        {"engine": "warp"},
        {"engine": "codegen"},
        {"budget_percent": "lots"},
        {"profile": 42},
        {"max_steps": 0},
        {"max_steps": "many"},
        {"timeout": "soon"},
    ],
)
def test_from_payload_rejects(bad):
    with pytest.raises(ValueError):
        BuildRequest.from_payload(_payload(**bad))


def test_run_inputs_must_be_numbers():
    with pytest.raises(ValueError):
        BuildRequest.from_payload(_payload(op="run", inputs=["seven"]))


# ----------------------------------------------------------------------
# Dedupe keys
# ----------------------------------------------------------------------


def test_build_key_ignores_request_noise():
    a = BuildRequest.from_payload(_payload(id="r1", timeout=5))
    b = BuildRequest.from_payload(_payload(id="r2", timeout=90))
    assert a.build_key() == b.build_key()
    assert a.key() == b.key()


def test_build_key_ignores_source_order():
    a = BuildRequest.from_payload(_payload())
    b = BuildRequest.from_payload(
        _payload(sources=[list(p) for p in reversed(SOURCES)])
    )
    assert a.build_key() == b.build_key()


@pytest.mark.parametrize(
    "over",
    [
        {"scope": "cp"},
        {"engine": "fast"},
        {"budget_percent": 10},
        {"train_inputs": [[9]]},
        {"profile": "profiledb v1"},
        {"sources": [["util", "int add(int a, int b) { return a - b; }"]]},
        {"strategy": "demand"},
    ],
)
def test_build_key_tracks_build_identity(over):
    assert (
        BuildRequest.from_payload(_payload()).build_key()
        != BuildRequest.from_payload(_payload(**over)).build_key()
    )


def test_strategy_validated_and_defaulted():
    assert BuildRequest.from_payload(_payload()).strategy == "global"
    # Spelling out the default must hit the same build-key (cache entry).
    assert (
        BuildRequest.from_payload(_payload(strategy="global")).build_key()
        == BuildRequest.from_payload(_payload()).build_key()
    )
    with pytest.raises(ValueError):
        BuildRequest.from_payload(_payload(strategy="eager"))


def test_run_key_shares_build_but_not_op():
    build = BuildRequest.from_payload(_payload())
    run_a = BuildRequest.from_payload(_payload(op="run", inputs=[7]))
    run_b = BuildRequest.from_payload(_payload(op="run", inputs=[8]))
    assert build.build_key() == run_a.build_key() == run_b.build_key()
    assert len({build.key(), run_a.key(), run_b.key()}) == 3


# ----------------------------------------------------------------------
# Report wire twin
# ----------------------------------------------------------------------


def test_report_round_trip_preserves_decisions():
    from repro.fleet import decision_set

    result = Toolchain(SOURCES, TRAIN_INPUTS, jobs=1).build("cp")
    report = result.report
    twin = deserialize_report(serialize_report(report))
    assert twin.inlines == report.inlines
    assert twin.deleted_procs == report.deleted_procs
    assert twin.sites_considered == report.sites_considered
    assert decision_set(twin) == decision_set(report)


def test_report_round_trip_preserves_degraded():
    report = HLOReport()
    report.events.append(TransformEvent("inline", 1, "main", "f", 3, "ok"))
    report.pass_failures.append(
        PassFailure(
            pass_name="sccp", proc="main", pass_number=2,
            phase="verify", error_type="boom", error="tb",
        )
    )
    twin = deserialize_report(serialize_report(report))
    assert len(twin.pass_failures) == 1
    assert twin.degraded == report.degraded
    assert twin.events[0].kind == "inline"
    assert twin.events[0].site_id == 3


def test_artifact_checksum_is_order_free_and_content_bound():
    a = artifact_checksum({"m1": "text1", "m2": "text2"})
    assert a == artifact_checksum({"m2": "text2", "m1": "text1"})
    assert a != artifact_checksum({"m1": "text1", "m2": "text3"})
    # Name/text boundaries can't be gamed by concatenation.
    assert artifact_checksum({"ab": "c"}) != artifact_checksum({"a": "bc"})


# ----------------------------------------------------------------------
# ServerState: warm result LRU and run-over-build sharing
# ----------------------------------------------------------------------


def test_repeat_build_is_a_result_hit():
    state = ServerState(jobs=1)
    try:
        request = BuildRequest.from_payload(_payload())
        cold = state.execute(request)
        warm = state.execute(request)
    finally:
        state.close()
    assert cold["cached"] is False
    assert warm["cached"] is True
    assert warm["checksum"] == cold["checksum"]
    assert state.builds == 1
    assert state.result_hits == 1


def test_run_reuses_the_warm_build():
    state = ServerState(jobs=1)
    try:
        state.execute(BuildRequest.from_payload(_payload()))
        reply = state.execute(
            BuildRequest.from_payload(_payload(op="run", inputs=REF_INPUT))
        )
    finally:
        state.close()
    assert reply["op"] == "run"
    assert reply["exit_code"] == 0
    assert reply["output"] == [7 * 2 * 3]
    assert reply["cached"] is True
    assert state.builds == 1


def test_result_lru_is_bounded():
    state = ServerState(jobs=1, results_capacity=1)
    try:
        first = BuildRequest.from_payload(_payload())
        other = BuildRequest.from_payload(_payload(scope="base"))
        state.execute(first)
        state.execute(other)  # evicts first
        state.execute(first)  # must rebuild
    finally:
        state.close()
    assert state.builds == 3
    assert state.result_hits == 0


def test_daemon_build_matches_cold_cli_build():
    """Byte identity: the daemon's artifacts equal a cold local build's."""
    from repro.linker.isom import to_isom_text

    state = ServerState(jobs=1)
    try:
        fields = state.execute(
            BuildRequest.from_payload(
                _payload(scope="cp", train_inputs=TRAIN_INPUTS)
            )
        )
    finally:
        state.close()
    cold = Toolchain(SOURCES, TRAIN_INPUTS, jobs=1).build("cp")
    cold_isoms = {
        name: to_isom_text(module)
        for name, module in cold.program.modules.items()
    }
    assert fields["isoms"] == cold_isoms
    assert fields["checksum"] == artifact_checksum(cold_isoms)
