"""Frequency estimation: static heuristics, profile data, entry counts."""

from repro.analysis import (
    CallGraph,
    block_freqs,
    entry_counts,
    profile_block_freqs,
    site_weight,
    static_block_freqs,
)
from repro.frontend import compile_module, compile_program


def proc_of(source, name="f"):
    return compile_module(source, "m").procs[name]


class TestStaticFreqs:
    def test_entry_is_one(self):
        proc = proc_of("int f() { return 0; }")
        assert static_block_freqs(proc)[proc.entry] == 1.0

    def test_loop_body_hotter_than_entry(self):
        proc = proc_of("int f(int n) { int s = 0; while (n) { s++; n--; } return s; }")
        freqs = static_block_freqs(proc)
        body = [l for l in proc.blocks if l.startswith("while.body")][0]
        assert freqs[body] > freqs[proc.entry]

    def test_nested_loops_multiply(self):
        proc = proc_of(
            "int f(int n) { int s=0; for (int i=0;i<n;i++) for (int j=0;j<n;j++) s++; return s; }"
        )
        freqs = static_block_freqs(proc)
        assert max(freqs.values()) >= 100.0  # two levels of 10x

    def test_branch_arm_colder_than_entry(self):
        proc = proc_of("int f(int x) { if (x) return 1; return 0; }")
        freqs = static_block_freqs(proc)
        then_block = [l for l in proc.blocks if l.startswith("if.then")][0]
        assert freqs[then_block] < 1.0


class TestProfileFreqs:
    def test_none_without_annotation(self):
        proc = proc_of("int f() { return 0; }")
        assert profile_block_freqs(proc) is None

    def test_measured_ratios(self):
        proc = proc_of("int f(int x) { if (x) return 1; return 0; }")
        proc.blocks[proc.entry].profile_count = 10
        then_block = [l for l in proc.blocks if l.startswith("if.then")][0]
        proc.blocks[then_block].profile_count = 3
        freqs = profile_block_freqs(proc)
        assert freqs[proc.entry] == 1.0
        assert freqs[then_block] == 0.3

    def test_block_freqs_prefers_profile(self):
        proc = proc_of("int f(int x) { if (x) return 1; return 0; }")
        proc.blocks[proc.entry].profile_count = 10
        assert block_freqs(proc, use_profile=True)[proc.entry] == 1.0
        static = block_freqs(proc, use_profile=False)
        assert static[proc.entry] == 1.0  # same value, different path


class TestEntryCounts:
    SOURCES = [
        (
            "m",
            """
            int leaf(int x) { return x + 1; }
            int mid(int x) { int s = 0; for (int i = 0; i < 4; i++) s += leaf(i); return s; }
            int main() { return mid(1); }
            """,
        )
    ]

    def test_static_propagation(self):
        program = compile_program(self.SOURCES)
        graph = CallGraph(program)
        counts = entry_counts(program, graph)
        assert counts["main"] == 1.0
        assert counts["mid"] >= 0.5
        # leaf is called from a loop in mid: much hotter.
        assert counts["leaf"] > counts["mid"]

    def test_measured_site_counts_win(self):
        program = compile_program(self.SOURCES)
        graph = CallGraph(program)
        leaf_site = next(s for s in graph.sites if s.callee and s.callee.name == "leaf")
        counts = entry_counts(program, graph, {leaf_site.key: 400})
        assert counts["leaf"] == 400.0

    def test_site_weight_uses_measurement(self):
        program = compile_program(self.SOURCES)
        graph = CallGraph(program)
        site = next(s for s in graph.sites if s.callee and s.callee.name == "leaf")
        entry = entry_counts(program, graph, {site.key: 400})
        assert site_weight(site, entry, {site.key: 400}) == 400.0
        # Without profile permission, the estimate path is used instead.
        est = site_weight(site, entry, {site.key: 400}, use_profile=False)
        assert est != 400.0

    def test_site_weight_reads_and_fills_a_frequency_memo(self):
        program = compile_program(self.SOURCES)
        graph = CallGraph(program)
        site = next(s for s in graph.sites if s.callee and s.callee.name == "leaf")
        entry = entry_counts(program, graph)
        uncached = site_weight(site, entry)
        assert uncached > 0.0

        memo = {}
        assert site_weight(site, entry, None, True, memo) == uncached
        assert memo == {"mid": block_freqs(site.caller)}
        # A measured site needs no frequencies and leaves the memo alone.
        untouched = {}
        assert site_weight(site, entry, {site.key: 400}, True, untouched) == 400.0
        assert untouched == {}

        memo["mid"] = {site.block.label: 2.0}
        assert site_weight(site, entry, None, True, memo) == entry["mid"] * 2.0
