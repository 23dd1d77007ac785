"""Fixtures for the parallel/incremental compilation tests."""

from __future__ import annotations

import pytest

from repro.linker.isom import to_isom_text
from repro.workloads.suite import get_workload

# A three-module program with cross-module calls, small enough that a
# full cp build (train + compile + HLO) stays fast in the suite.
SOURCES = [
    (
        "util",
        "int add(int a, int b) { return a + b; }\n"
        "int mul(int a, int b) { return a * b; }\n",
    ),
    (
        "mid",
        "extern int add(int a, int b);\n"
        "int twice(int x) { return add(x, x); }\n",
    ),
    (
        "main",
        "extern int twice(int x);\n"
        "extern int mul(int a, int b);\n"
        "int main() { int n = input(0); print_int(mul(twice(n), 3)); return 0; }\n",
    ),
]

TRAIN_INPUTS = [[5]]
REF_INPUT = [7]

#: The programs the jobs and warm-cache gates run on: the toy above and
#: the three suite programs bench smoke builds.
GATE_PROGRAMS = ("toy", "compress", "sc", "vortex")


def gate_program(name):
    """``(sources, train inputs, reference input)`` of a gate program."""
    if name == "toy":
        return [(mod, text) for mod, text in SOURCES], TRAIN_INPUTS, REF_INPUT
    workload = get_workload(name)
    return (
        list(workload.sources),
        [list(vector) for vector in workload.train_inputs],
        list(workload.ref_input),
    )


@pytest.fixture
def sources():
    return [(name, text) for name, text in SOURCES]


def isoms(result):
    """Module name -> final isom text, for byte-level comparisons."""
    return {
        name: to_isom_text(module)
        for name, module in result.program.modules.items()
    }
