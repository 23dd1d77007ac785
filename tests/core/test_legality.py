"""Legality screens (Section 2.3/2.4): every restriction class."""

import pytest

from repro.analysis import CallGraph
from repro.core import clone_blocker, inline_blocker
from repro.frontend import compile_program


def site_for(sources, caller, callee_fragment):
    program = compile_program(sources)
    graph = CallGraph(program)
    for site in graph.sites:
        target = getattr(site.instr, "callee", "")
        if site.caller.name == caller and callee_fragment in str(target):
            return program, site
    for site in graph.sites:  # indirect sites have no callee name
        if site.caller.name == caller and site.category == "indirect":
            return program, site
    raise AssertionError("site not found")


ONE = [
    (
        "m",
        """
        int plain(int x) { return x + 1; }
        noinline int stubborn(int x) { return x; }
        noclone int unique(int x) { return x; }
        int варargs(int x); // placeholder replaced below
        int variadic(int x, ...) { return x + va_count(); }
        reassoc float fastmath(float x) { return x * 2.0; }
        int dyn(int n) { int p = alloca(n); p[0] = n; return p[0]; }
        int main() {
          int f = &plain;
          print_int(plain(1));
          print_int(stubborn(2));
          print_int(unique(3));
          print_int(variadic(4, 5));
          print_int(dyn(2));
          print_int(f(6));
          print_flt(fastmath(1.0));
          return 0;
        }
        """.replace("int варargs(int x); // placeholder replaced below", ""),
    )
]


class TestInlineBlockers:
    def test_plain_site_allowed(self):
        program, site = site_for(ONE, "main", "plain")
        assert inline_blocker(program, site) is None

    def test_noinline_directive(self):
        program, site = site_for(ONE, "main", "stubborn")
        assert "noinline" in inline_blocker(program, site)

    def test_varargs_callee(self):
        program, site = site_for(ONE, "main", "variadic")
        assert "variable arguments" in inline_blocker(program, site)

    def test_dynamic_alloca(self):
        program, site = site_for(ONE, "main", "dyn")
        assert "alloca" in inline_blocker(program, site)

    def test_indirect_site(self):
        program, site = site_for(ONE, "main", "__indirect__")
        assert "indirect" in inline_blocker(program, site)

    def test_external_site(self):
        program, site = site_for(ONE, "main", "print_int")
        assert "external" in inline_blocker(program, site)

    def test_fp_reassoc_disagreement(self):
        program, site = site_for(ONE, "main", "fastmath")
        blocked = inline_blocker(program, site)
        assert blocked is not None and "reassociation" in blocked

    def test_fp_reassoc_agreement_allowed(self):
        sources = [
            (
                "m",
                """
                reassoc float inner(float x) { return x * 2.0; }
                reassoc float outer(float x) { return inner(x) + 1.0; }
                int main() { print_flt(outer(1.0)); return 0; }
                """,
            )
        ]
        program, site = site_for(sources, "outer", "inner")
        assert inline_blocker(program, site) is None

    def test_cross_module_scope_restriction(self):
        sources = [
            ("lib", "int f(int x) { return x; }"),
            ("main", "extern int f(int x); int main() { return f(1); }"),
        ]
        program, site = site_for(sources, "main", "f")
        assert inline_blocker(program, site, cross_module=True) is None
        assert "scope" in inline_blocker(program, site, cross_module=False)

    def test_self_recursive_site_allowed(self):
        sources = [
            ("m", "int r(int n) { if (n <= 0) return 0; return r(n - 1); } int main() { return r(3); }")
        ]
        program, site = site_for(sources, "r", "r")
        assert inline_blocker(program, site) is None


class TestCloneBlockers:
    def test_plain_site_allowed(self):
        program, site = site_for(ONE, "main", "plain")
        assert clone_blocker(program, site) is None

    def test_noclone_directive(self):
        program, site = site_for(ONE, "main", "unique")
        assert "noclone" in clone_blocker(program, site)

    def test_noinline_does_not_block_cloning(self):
        program, site = site_for(ONE, "main", "stubborn")
        assert clone_blocker(program, site) is None

    def test_varargs_blocked(self):
        program, site = site_for(ONE, "main", "variadic")
        assert clone_blocker(program, site) is not None

    def test_dynamic_alloca_ok_for_cloning(self):
        # Cloning copies the body verbatim: alloca stays in its frame.
        program, site = site_for(ONE, "main", "dyn")
        assert clone_blocker(program, site) is None

    def test_main_not_clonable(self):
        sources = [("m", "int main() { return main(); }")]
        program, site = site_for(sources, "main", "main")
        assert "entry point" in clone_blocker(program, site)

    def test_indirect_blocked(self):
        program, site = site_for(ONE, "main", "__indirect__")
        assert clone_blocker(program, site) is not None
