"""Worker-pool failures degrade to serial compilation; input errors don't."""

from __future__ import annotations

import os
import time

import pytest

import repro.parallel.executor as executor
from repro.frontend.errors import CompileError
from repro.linker.toolchain import Toolchain
from repro.parallel import MapOutcome, compile_sources, parallel_map

from .conftest import REF_INPUT, TRAIN_INPUTS, isoms


class _BrokenPool:
    """Stands in for ProcessPoolExecutor when the OS says no."""

    def __init__(self, *args, **kwargs):
        raise OSError("no processes for you")


@pytest.fixture
def broken_pool(monkeypatch):
    monkeypatch.setattr(executor, "ProcessPoolExecutor", _BrokenPool)


def test_parallel_map_falls_back_serially(broken_pool):
    warnings = []
    results, fell_back = parallel_map(
        lambda x: x * 2, [1, 2, 3], jobs=4, warn=warnings.append
    )
    assert results == [2, 4, 6]
    assert fell_back
    assert warnings and "serially" in warnings[0]


def test_compile_sources_survives_broken_pool(sources, broken_pool):
    program, stats = compile_sources(sources, jobs=4)
    assert list(program.modules) == [name for name, _text in sources]
    assert stats.serial_fallback
    assert stats.compiled == len(sources)


def test_toolchain_records_fallback_as_warning_not_degradation(
    sources, broken_pool
):
    result = Toolchain(sources, train_inputs=TRAIN_INPUTS, jobs=4).build("cp")
    assert result.diagnostics.parallel_fallbacks
    assert any("serially" in w for w in result.diagnostics.warnings)
    assert "serial fallback" in result.diagnostics.summary(result.report)
    assert not result.degraded  # output identical, only slower to produce


def test_fallback_output_matches_healthy_build(sources, broken_pool):
    degraded_pool = Toolchain(sources, train_inputs=TRAIN_INPUTS, jobs=4).build("cp")
    healthy = Toolchain(sources, train_inputs=TRAIN_INPUTS, jobs=1).build("cp")
    assert isoms(degraded_pool) == isoms(healthy)
    behavior_a = degraded_pool.run(REF_INPUT)[1].behavior()
    behavior_b = healthy.run(REF_INPUT)[1].behavior()
    assert behavior_a == behavior_b


def test_compile_errors_propagate_through_workers():
    bad = [("ok", "int f() { return 1; }"), ("bad", "this is not minic")]
    with pytest.raises(CompileError):
        compile_sources(bad, jobs=2)


def test_worker_exception_class_recorded(sources, broken_pool):
    """The bare except no longer swallows the class name silently."""
    _program, stats = compile_sources(sources, jobs=4)
    assert "OSError" in stats.worker_errors


def test_diagnostics_carry_worker_errors_into_metrics(sources, broken_pool):
    result = Toolchain(sources, train_inputs=TRAIN_INPUTS, jobs=4).build("cp")
    assert "OSError" in result.diagnostics.worker_errors
    metrics = result.diagnostics.metrics(result.report)
    assert metrics.value("build.worker_errors") >= 1
    assert metrics.value("build.compile_timeouts") == 0


# The sentinel rides in the environment (inherited by fork and spawn
# children alike), so only pool workers sleep — the serial retry in the
# parent stays fast.
_PID_VAR = "_REPRO_TEST_PARENT_PID"


def _slow_in_worker(x):
    if os.environ.get(_PID_VAR) != str(os.getpid()):
        time.sleep(1.5)
    return x * 3


def test_parallel_map_watchdog_degrades_to_serial(monkeypatch):
    monkeypatch.setenv(_PID_VAR, str(os.getpid()))
    warnings = []
    results, outcome = parallel_map(
        _slow_in_worker, [1, 2, 3], jobs=2, warn=warnings.append, timeout=0.2
    )
    assert results == [3, 6, 9]
    assert outcome.fell_back
    assert outcome.timeouts >= 1
    assert warnings and "stalled" in warnings[0] and "serially" in warnings[0]


def test_compile_sources_counts_watchdog_timeouts(sources, monkeypatch):
    """Timeouts surface as ``compile_timeouts`` with their own reason."""
    real = executor.parallel_map

    def stalled(func, items, jobs=1, warn=None, timeout=None):
        results, _outcome = real(func, items, jobs=1)
        if warn is not None:
            warn("parallel compile stalled (2 module(s) ...); compiling serially")
        return results, MapOutcome(fell_back=True, timeouts=2)

    monkeypatch.setattr(executor, "parallel_map", stalled)
    _program, stats = compile_sources(sources, jobs=4, timeout=0.1)
    assert stats.serial_fallback
    assert stats.compile_timeouts == 2
    assert stats.fallback_reason == "compile timeout"


def test_toolchain_records_compile_timeouts(sources, monkeypatch):
    real = executor.parallel_map

    def stalled(func, items, jobs=1, warn=None, timeout=None):
        results, _outcome = real(func, items, jobs=1)
        return results, MapOutcome(fell_back=True, timeouts=1)

    monkeypatch.setattr(executor, "parallel_map", stalled)
    result = Toolchain(
        sources, train_inputs=TRAIN_INPUTS, jobs=4, compile_timeout=0.1
    ).build("cp")
    assert result.diagnostics.compile_timeouts >= 1
    assert any("timeout" in f for f in result.diagnostics.parallel_fallbacks)
    metrics = result.diagnostics.metrics(result.report)
    assert metrics.value("build.compile_timeouts") >= 1
    assert not result.degraded  # slower to produce, identical output
