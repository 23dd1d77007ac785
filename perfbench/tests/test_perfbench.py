"""Toy-size checks of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

One suite program at one budget, and a 4-module generated program, so
the whole file runs in well under a minute.
"""

import importlib
import json
import os
import shutil
import subprocess

import pytest

from perfbench import bench, compare, trace, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def toy(name):
    if name == "compile":
        return workloads.CompileSweep(programs=("compress",), budgets=(400,))
    if name == "simulate":
        return workloads.Simulate(programs=("compress",), budgets=(400,))
    return workloads.LargeProgram(n_modules=4)


WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def runs(request):
    plain, _ = bench.measure(toy(request.param), seed=1)
    traced, recorder = bench.measure(toy(request.param), seed=1, traced=True)
    return plain, traced, recorder


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_every_benchmark_metric_is_emitted_with_its_unit(runs):
    plain, traced, _recorder = runs
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == _declared(section)


def test_runs_are_correct_and_traced_outputs_match(runs):
    plain, traced, _recorder = runs
    assert plain["correct"] and traced["correct"], plain["failures"] + traced["failures"]
    assert plain["failed_frac"] == 0 and traced["failed_frac"] == 0
    assert plain["outputs"] == traced["outputs"]
    assert plain["rounds"] == toy(plain["workload"]).rounds
    for metric in plain["metrics"].values():
        assert metric["value"] > 0
    if plain["workload"] == "simulate":
        assert plain["outputs"]["speedup_geomean"] > 1.0


def test_layer_shares_and_untraced_share_sum_to_one(runs):
    _plain, traced, recorder = runs
    shares = [traced["metrics"][layer + ".share"]["value"] for layer in bench.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    # Every recorded layer is one the metrics report.
    assert set(traced["layers"]) <= set(bench.LAYERS)
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert any(span[0] == trace.OP for span in recorder.spans)


def test_chrome_trace_holds_every_span(runs, tmp_path):
    _plain, _traced, recorder = runs
    path = tmp_path / "trace.json"
    trace.write_chrome_trace(recorder, str(path))
    events = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "X"]
    assert sorted(e["name"] for e in events) == sorted(s[0] for s in recorder.spans)
    assert {e["tid"] for e in events} == {0}


class PlantedOracle(workloads.LargeProgram):
    def setup(self):
        keys = super().setup()
        self._oracle = (99, (12345,))
        return keys


def test_planted_wrong_oracle_raises_failed_frac():
    result, _ = bench.measure(PlantedOracle(n_modules=4), seed=0)
    assert result["failed_frac"] > 0
    assert not result["correct"]
    assert {f["kind"] for f in result["failures"]} == {"mismatch"}


def test_changed_exact_output_is_a_failure():
    first, later = bench.Round(), bench.Round()
    first.exact["op"] = {"isom_digest": "a"}
    later.exact["op"] = {"isom_digest": "b"}
    bench.check_repeat(first, later)
    assert [f["kind"] for f in later.failures] == ["non-deterministic"]


def _wrapped_attributes():
    names = [(module, attr) for module, attr, _layer in trace.WRAPPED_FUNCTIONS]
    names += [(trace.SNAPSHOT_MODULE, attr) for attr in trace.SNAPSHOT_CLASSES]
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in names}


def test_trace_restores_module_attributes():
    before = _wrapped_attributes()
    bench.measure(toy("large-program"), seed=2, traced=True)
    assert _wrapped_attributes() == before
    with pytest.raises(RuntimeError):
        with trace.installed(trace.SpanRecorder()):
            assert _wrapped_attributes() != before
            raise RuntimeError("stage failed")
    assert _wrapped_attributes() == before


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.0]
    assert compare.verdict(parent, [104.0] * 4, "lower", 0.1)[0] == "within bound"
    assert compare.verdict(parent, [120.0] * 4, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, [120.0] * 4, "higher", 0.1)[0] == "within bound"
    noisy = [50.0, 100.0, 150.0, 200.0]
    assert compare.verdict(noisy, [120.0] * 4, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [10.0] * 4, "lower", 0.1)[0] == "better"


def test_exits_without_result_when_there_is_nothing_to_measure(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "compile", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
