"""Shared test fixtures and program-building helpers."""

from __future__ import annotations

import pytest

from repro.frontend import compile_program
from repro.interp import run_program
from repro.ir import IRBuilder, Module, Program, Type, verify_program


# Where a PA8000 model keeps its machine state: in-process, as on a
# one-CPU host, or in the machine-state worker, as on two or more CPUs.
# The model chooses by the CPU count, which the fixture fakes.
TRANSPORT_CPUS = {"in-process": 1, "worker": 2}


@pytest.fixture(params=sorted(TRANSPORT_CPUS))
def transport(request, monkeypatch):
    from repro.machine import pa8000

    cpus = TRANSPORT_CPUS[request.param]
    monkeypatch.setattr(pa8000, "_cpus", lambda: cpus)
    return request.param


def build_program(*module_specs):
    """Build a Program from (name, builder_fn) pairs.

    Each builder_fn receives the Module and adds procedures to it.
    """
    modules = []
    for name, fn in module_specs:
        mod = Module(name)
        fn(mod)
        modules.append(mod)
    return Program(modules)


def single_proc_program(body_fn, params=(), ret=Type.INT, name="main"):
    """A one-module, one-procedure program; body_fn(builder)."""
    mod = Module("m")
    builder = IRBuilder(mod, name, list(params), ret)
    body_fn(builder)
    return Program([mod])


def compile_and_run(sources, inputs=(), max_steps=2_000_000):
    """Compile minic sources and run; returns the interp Result."""
    program = compile_program(sources)
    return run_program(program, inputs, max_steps=max_steps)


def run_main(source, inputs=(), max_steps=2_000_000):
    """Compile a single 'main' module and run it."""
    return compile_and_run([("main", source)], inputs, max_steps)


@pytest.fixture
def two_module_sources():
    """A small cross-module program used by many pipeline tests."""
    lib = """
    static int cache[16];

    int helper(int x) {
      if (x < 0) return 0;
      return x * 2 + 1;
    }

    int cached(int x) {
      int i = x & 15;
      if (cache[i]) return cache[i];
      cache[i] = helper(x) + 1;
      return cache[i];
    }
    """
    main = """
    extern int helper(int x);
    extern int cached(int x);

    int main() {
      int total = 0;
      int i;
      for (i = 0; i < 20; i++) {
        total += helper(i) + cached(i);
      }
      print_int(total);
      return total % 97;
    }
    """
    return [("lib", lib), ("main", main)]
