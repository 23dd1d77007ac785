"""AnalysisManager: memoization with explicit invalidation."""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisManager, CallGraph
from repro.analysis.freq import entry_counts
from repro.core import hlo
from repro.core.config import HLOConfig
from repro.frontend import compile_program
from repro.linker.isom import to_isom_text
from repro.linker.toolchain import Toolchain
from repro.workloads.suite import get_workload

SOURCES = [
    (
        "lib",
        """
        int helper(int x) { return x * 3 + 1; }
        int wrap(int x) { return helper(x) + helper(x + 1); }
        """,
    ),
    (
        "main",
        """
        extern int wrap(int x);
        int main() {
          int i;
          int total = 0;
          for (i = 0; i < input(0); i++) total = total + wrap(i);
          print_int(total);
          return 0;
        }
        """,
    ),
]


def test_callgraph_is_cached_until_invalidated():
    manager = AnalysisManager(compile_program(SOURCES))
    first = manager.callgraph()
    assert manager.callgraph() is first
    assert (manager.hits, manager.misses) == (1, 1)
    manager.invalidate_procs(["wrap"])
    assert manager.callgraph() is not first
    assert manager.invalidations == 1


def test_entry_counts_cached_per_profile_presence():
    manager = AnalysisManager(compile_program(SOURCES))
    static = manager.entry_counts(None)
    assert manager.entry_counts(None) is static
    profiled = manager.entry_counts({("main", 0): 7})
    assert profiled is not static
    assert manager.entry_counts({("main", 0): 7}) is profiled


def test_invalidate_procs_is_selective_for_freqs():
    manager = AnalysisManager(compile_program(SOURCES))
    cache = manager.freq_cache()
    cache["wrap"] = {"entry": 1.0}
    cache["helper"] = {"entry": 1.0}
    manager.invalidate_procs(["wrap"])
    assert "wrap" not in manager.freq_cache()
    assert "helper" in manager.freq_cache()
    manager.invalidate_all()
    assert manager.freq_cache() == {}


class RecomputingManager(AnalysisManager):
    """The unmemoized reference: every query recomputes from scratch.

    It never returns a cached result, so it cannot serve a stale one;
    a build through it is what a correctly invalidated memo must match.
    """

    def callgraph(self):
        self.misses += 1
        return CallGraph(self.program)

    def entry_counts(self, site_counts):
        self.misses += 1
        return entry_counts(self.program, CallGraph(self.program), site_counts)

    def freq_cache(self):
        return {}


def _build(toolchain, scope):
    result = toolchain.build(scope)
    isoms = {
        name: to_isom_text(module)
        for name, module in result.program.modules.items()
    }
    return isoms, result.report


@pytest.mark.parametrize("strategy", ["global", "demand"])
@pytest.mark.parametrize("scope", ["c", "cp"])
@pytest.mark.parametrize("name", ["compress", "sc", "vortex"])
def test_memoized_hlo_is_equivalent_and_counts_reuse(
    name, scope, strategy, monkeypatch
):
    workload = get_workload(name)
    toolchain = Toolchain(
        list(workload.sources),
        train_inputs=[list(t) for t in workload.train_inputs],
        config=HLOConfig(strategy=strategy),
    )
    memo_isoms, memo = _build(toolchain, scope)
    monkeypatch.setattr(hlo, "AnalysisManager", RecomputingManager)
    plain_isoms, plain = _build(toolchain, scope)
    assert memo_isoms == plain_isoms
    assert str(memo) == str(plain)
    assert memo.events == plain.events
    assert memo.pass_traces == plain.pass_traces
    assert memo.analysis_hits > 0
    assert plain.analysis_hits == 0 and plain.analysis_misses > 0
