"""Isoms, the link step, and the scope-aware toolchain."""

from collections import Counter

import pytest

from repro.frontend import compile_module, compile_program
from repro.interp import engine, run_program
from repro.ir import Signature, Type, print_module, printer
from repro.linker import (
    LinkError,
    Toolchain,
    from_isom_text,
    is_isom_text,
    link_modules,
    read_isom,
    roundtrip_modules,
    scope_flags,
    to_isom_text,
    write_isom,
)
from repro.profile import fingerprint

LIB = """
static int tripled(int x) { return x * 3; }
int api(int x) { return tripled(x) + 1; }
"""
MAIN = """
extern int api(int x);
int main() { print_int(api(input(0))); return 0; }
"""


class TestIsoms:
    def test_text_roundtrip(self):
        mod = compile_module(LIB, "lib")
        text = to_isom_text(mod)
        assert is_isom_text(text)
        header, _, payload = text.partition("\n")
        assert header.startswith("isom 1 crc32 ")
        assert print_module(from_isom_text(text)) == payload

    def test_sniffing(self):
        assert not is_isom_text("\x7fELF...")
        assert not is_isom_text("")
        # Both the versioned format and legacy headerless payloads sniff.
        assert is_isom_text(to_isom_text(compile_module(LIB, "lib")))
        assert is_isom_text("\n\nmodule \"x\"\n")

    def test_disk_roundtrip(self, tmp_path):
        mod = compile_module(LIB, "lib")
        path = write_isom(mod, str(tmp_path))
        assert path.endswith("lib.isom")
        loaded = read_isom(path)
        assert print_module(loaded) == print_module(mod)

    def test_roundtrip_modules_preserves_execution(self):
        program = compile_program([("lib", LIB), ("main", MAIN)])
        before = run_program(program, [5]).behavior()
        relinked = link_modules(roundtrip_modules(program.modules.values()))
        assert run_program(relinked, [5]).behavior() == before


# 1e400 overflows to inf: the printer writes ``inf``, which the isom
# reader must take back, as an operand and as a global initializer.
NON_FINITE = {
    "operand": "int main() { float x = 1e400; print_flt(x); return 0; }",
    "initializer": "float g = 1e400; int main() { print_flt(g); return 0; }",
    "negative": "float g = -1e400; int main() { print_flt(g - 1e400); return 0; }",
}


class TestNonFiniteFloats:
    @pytest.mark.parametrize("source", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_isom_roundtrip(self, source):
        text = to_isom_text(compile_module(source, "m"))
        assert "inf" in text
        assert to_isom_text(from_isom_text(text)) == text

    def test_nan_roundtrip(self):
        text = (
            'module "m"\nglobal $g [2] global = nan -inf\n'
            "proc @main() -> int global {\nentry:\n"
            "  %x = mov nan\n  %y = add %x, inf\n  ret 0\n}\n"
        )
        assert to_isom_text(from_isom_text(text)).partition("\n")[2] == text

    @pytest.mark.parametrize("scope", ["c", "cp"])
    @pytest.mark.parametrize("source", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_cross_module_build_keeps_whole_program_scope(self, source, scope):
        toolchain = Toolchain([("m", source)], train_inputs=[[]])
        base = toolchain.build("base").run(())[1].output
        build = toolchain.build(scope)
        assert build.diagnostics.module_fallbacks == []
        assert not build.degraded
        assert build.run(())[1].output == base


class TestLinkStep:
    def test_undefined_symbol(self):
        mod = compile_module(MAIN, "main")
        with pytest.raises(LinkError) as err:
            link_modules([mod])
        assert "api" in str(err.value)

    def test_signature_mismatch(self):
        lib = compile_module("int api(int x, int y) { return x + y; }", "lib")
        main = compile_module(MAIN, "main")
        with pytest.raises(LinkError) as err:
            link_modules([lib, main])
        assert "mismatch" in str(err.value)

    def test_missing_entry(self):
        lib = compile_module(LIB, "lib")
        with pytest.raises(LinkError) as err:
            link_modules([lib])
        assert "main" in str(err.value)

    def test_successful_link(self):
        program = link_modules(
            [compile_module(LIB, "lib"), compile_module(MAIN, "main")]
        )
        assert run_program(program, [2]).output == [7]


class TestToolchain:
    def toolchain(self):
        return Toolchain([("lib", LIB), ("main", MAIN)], train_inputs=[[4]])

    def test_scope_flags(self):
        assert scope_flags("base") == (False, False)
        assert scope_flags("c") == (True, False)
        assert scope_flags("p") == (False, True)
        assert scope_flags("cp") == (True, True)
        with pytest.raises(ValueError):
            scope_flags("turbo")

    def test_all_scopes_agree_on_behavior(self):
        tc = self.toolchain()
        behaviors = set()
        for scope in ("base", "c", "p", "cp"):
            result = tc.build(scope)
            _metrics, run = result.run([9])
            behaviors.add(run.behavior())
        assert len(behaviors) == 1

    def test_profile_scope_requires_training_inputs(self):
        tc = Toolchain([("lib", LIB), ("main", MAIN)])
        with pytest.raises(ValueError):
            tc.build("p")
        tc.build("c")  # fine without training data

    def test_profile_builds_cost_more_compile_units(self):
        tc = self.toolchain()
        base = tc.build("base")
        prof = tc.build("p")
        assert prof.stats.compile_units > base.stats.compile_units
        assert prof.stats.train_runs == 1
        assert prof.stats.train_steps > 0
        assert prof.stats.annotated_blocks > 0

    @pytest.mark.parametrize("scope", ["c", "p", "cp"])
    def test_a_build_prints_each_procedure_once(self, monkeypatch, scope):
        # Training's fingerprints (one per run) and the isom writer print
        # the same unchanged program; one print per procedure serves all.
        # The engine's plan cache prints to check its plans, not for the
        # build, so it keeps the real printer.
        printed = Counter()
        real = printer.print_proc

        def counting(proc):
            printed[proc.name] += 1
            return real(proc)

        monkeypatch.setattr(printer, "print_proc", counting)
        monkeypatch.setattr(fingerprint, "print_proc", counting)
        monkeypatch.setattr(engine, "print_proc", real)
        Toolchain([("lib", LIB), ("main", MAIN)], train_inputs=[[4], [5]]).build(scope)
        assert set(printed) == {"main", "api", "tripled$lib"}
        assert set(printed.values()) == {1}

    def test_profile_cached_across_builds(self):
        tc = self.toolchain()
        first = tc.build("p")
        second = tc.build("cp")
        assert first.profile is second.profile

    def test_cross_module_build_can_delete_statics_callers(self):
        tc = self.toolchain()
        c_build = tc.build("c")
        # With link-time scope and full inlining the library becomes
        # unreachable; module scope must keep the global-linkage api.
        base_build = tc.build("base")
        assert base_build.program.proc("api") is not None

    def test_build_stats_shape(self):
        tc = self.toolchain()
        result = tc.build("cp")
        assert result.stats.scope == "cp"
        assert result.stats.code_size_instrs == result.program.size()
