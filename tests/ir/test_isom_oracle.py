"""The production isom reader and printer against the ones they replaced.

``reference_isom`` keeps the old reader and printer.  On every module of
the suite, of generated programs of seeds 0-3 and of the
``large-program`` shape, both as the front end makes it and after a
``cp`` build, the two must print the same text, read it back to the
same module (blocks, profile counts and the next call-site id included)
and raise the same :class:`IsomError` kind on every corruption: the
fault injector's modes on the versioned text, and damage to the
headerless text, which no checksum guards, so the reader itself must
catch it.

Only the two defects the rewrite fixed may differ, and each is named
where it is allowed:

- the old reader rejects the words the printer writes for non-finite
  floats (``inf``, ``-inf``, ``nan``);
- the old reader lets a bare exception from the IR escape (an unknown
  type, a non-numeric word, a duplicate name): the new one raises
  ``IsomError`` of kind ``malformed``.
"""

from __future__ import annotations

import random
import re
from unittest import mock

import pytest

from repro.frontend import compile_program
from repro.ir import parser, print_module
from repro.linker import isom
from repro.linker.isom import from_isom_text, to_isom_text
from repro.linker.toolchain import Toolchain
from repro.resilience import FaultInjector, IsomError
from repro.resilience.faults import CORRUPTION_MODES
from repro.workloads.generator import generate_sources
from repro.workloads.suite import all_workloads

from . import reference_isom as ref

# perfbench's ``large-program`` shape.
LARGE_SHAPE = {
    "n_modules": 100, "funcs_per_module": 4, "n_globals": 25, "extern_window": 8,
}
# Characters a damaged line may gain: the format's own punctuation,
# names, digits, whitespace, and words for non-finite floats.
_DAMAGE = list("%@$#[](),:=!.-;{}\" \taz09_x") + ["inf", "nan", "-"]
_NON_FINITE_WORD = re.compile(r"(?<![\w.$%@])-?(?:inf|nan)(?![\w.])")


def _programs():
    for workload in all_workloads():
        yield workload.name, list(workload.sources), [
            list(t) for t in workload.train_inputs
        ]
    for seed in range(4):
        yield "seed{}".format(seed), generate_sources(seed), [[3], [7]]
    yield "large", generate_sources(0, **LARGE_SHAPE), [[]]


PROGRAMS = {name: (sources, inputs) for name, sources, inputs in _programs()}


def _modules(name, stage):
    sources, inputs = PROGRAMS[name]
    if stage == "front-end":
        program = compile_program(sources)
    else:
        program = Toolchain(sources, train_inputs=inputs).build("cp").program
    return list(program.modules.values())


def _shape(mod):
    """Everything a reader decides about a module."""
    procs = []
    for proc in mod.procs.values():
        blocks = [
            (
                label,
                block.profile_count,
                [
                    (str(i), getattr(i, "site_id", None), getattr(i, "origin", None))
                    for i in block.instrs
                ],
            )
            for label, block in proc.blocks.items()
        ]
        procs.append((
            proc.name, proc.params, proc.ret_type, proc.linkage,
            sorted(proc.attrs), proc.entry, blocks,
        ))
    gvars = [(g.name, g.size, g.init, g.linkage) for g in mod.globals.values()]
    return (mod.name, sorted(mod.externs.items(), key=str), gvars, procs,
            mod.new_site_id())


def _outcome(text, reference=False):
    """What ``from_isom_text`` makes of ``text`` with either reader."""
    parse, printer = (
        (ref.parse_module, ref.print_module) if reference
        else (parser.parse_module, print_module)
    )
    with mock.patch.object(isom, "parse_module", parse):
        try:
            mod = from_isom_text(text)
        except IsomError as exc:
            return ("error", exc.kind)
        except Exception as exc:  # the old reader's leaks, recorded as such
            return ("leak", type(exc).__name__)
    return ("ok", printer(mod), _shape(mod))


def _assert_same(text):
    new = _outcome(text)
    assert new[0] != "leak", (text, new)
    old = _outcome(text, reference=True)
    if new == old:
        return
    if new[0] == "ok" and _NON_FINITE_WORD.search(text):
        # Fixed defect: the old reader refused the printer's words for
        # non-finite floats, as a bad operand or a bare ValueError.
        assert old in (("error", "malformed"), ("leak", "ValueError")), (text, old)
        return
    # Fixed defect: the IR's exception escaped the old reader.
    assert old[0] == "leak" and new == ("error", "malformed"), (text, new, old)


def _damaged(payload, rng, count):
    """``count`` copies of ``payload``, each damaged in one place."""
    lines = payload.splitlines()
    for _ in range(count):
        edited = list(lines)
        at = rng.randrange(len(edited))
        line = edited[at]
        action = rng.choice(
            ["delete", "duplicate", "swap", "replace", "insert", "cut"]
        )
        if action == "delete":
            del edited[at]
        elif action == "duplicate":
            edited.insert(at, line)
        elif action == "swap" and at + 1 < len(edited):
            edited[at], edited[at + 1] = edited[at + 1], line
        elif action in ("replace", "insert") and line:
            col = rng.randrange(len(line))
            skip = 1 if action == "replace" else 0
            edited[at] = line[:col] + rng.choice(_DAMAGE) + line[col + skip:]
        elif line:
            edited[at] = line[: rng.randrange(len(line))]
        yield "\n".join(edited) + "\n"


@pytest.mark.parametrize("stage", ["front-end", "cp-build"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_reader_and_printer_match_the_reference(name, stage):
    modules = _modules(name, stage)
    rng = random.Random("{}/{}".format(name, stage))
    # Twelve damaged copies of each small program's modules, two of the
    # large one's (it has 100).
    damaged_per_module = 12 if len(modules) < 20 else 2
    for index, mod in enumerate(modules):
        text = to_isom_text(mod)
        assert text.partition("\n")[2] == ref.print_module(mod)
        assert not _NON_FINITE_WORD.search(text)
        new = _outcome(text)
        assert new[0] == "ok" and new[1] == text.partition("\n")[2]
        assert new == _outcome(text, reference=True)

        for mode in CORRUPTION_MODES:
            corrupted = FaultInjector(seed=index, mode=mode).corrupt_text(text)
            _assert_same(corrupted)

        payload = text.partition("\n")[2]
        for mode in ("truncate", "garble"):
            _assert_same(FaultInjector(seed=index, mode=mode).corrupt_text(payload))
        for damaged in _damaged(payload, rng, damaged_per_module):
            _assert_same(damaged)


# Headerless texts that exercise the reader's error paths one by one.
MALFORMED = [
    "",
    'module "m"\nmodule "n"\n',
    'module "m"\nmodulex\n',
    'module "m"\nextern @f (int, wat) -> int\n',
    'module "m"\nextern @f (int) -> wat\n',
    'module "m"\nextern @f int -> int\n',
    'module "m"\nglobal $g [0] global\n',
    'module "m"\nglobal $g [1] global = 1 2\n',
    'module "m"\nglobal $g [2] global = 1 abc\n',
    'module "m"\nglobal $g [1] global = inf\n',
    'module "m"\nglobal $g [1] global = -inf\n',
    'module "m"\nglobal $g [1] global = nan\n',
    'module "m"\nglobal $g [1] global\nglobal $g [1] global\n',
    'module "m"\nglobal $g [1] local\n',
    'module "m"\nproc @f() -> wat global {\nentry:\n  ret\n}\n',
    'module "m"\nproc @f(%a: wat) -> int global {\nentry:\n  ret 0\n}\n',
    'module "m"\nproc @f(a: int) -> int global {\nentry:\n  ret 0\n}\n',
    'module "m"\nproc @f() -> int global [bogus] {\nentry:\n  ret 0\n}\n',
    'module "m"\nproc @f() -> int global {\nentry:\n  ret 0\n}\n'
    'proc @f() -> int global {\nentry:\n  ret 0\n}\n',
    'module "m"\nproc @f() -> int global {\nentry:\n  ret 0\nentry:\n  ret 1\n}\n',
    'module "m"\nproc @f() -> int global {\n}\n',
    'module "m"\nproc @f() -> int global {\nentry:\n  ret 0\n',
    'module "m"\nproc @f() -> int global {\n  ret 0\n}\n',
    'module "m"\nstray line\n',
    'proc @f() -> int global {\nentry:\n  ret 0\n}\n',
]
_BODY = 'module "m"\nproc @f(%a: int) -> int global {{\nentry:\n  {}\n  ret 0\n}}\n'
INSTRUCTIONS = [
    "%x =", "%x = ", "%x = mov", "%x = mov inf", "%x = mov -inf", "%x = mov nan",
    "%x = mov nan0", "%x = add %a", "%x = add %a, 1, 2", "%x = add %a,, 1",
    "%x = neg", "%x = wat %a", "mov %a", "%x = load %a", "%x = load []",
    "%x = load [%a]", "store [%a]", "store [%a], 1", "%x = store [%a], 1",
    "%x = alloca", "%x = alloca 4", "jmp", "jmp entry", "br %a, entry",
    "br %a, entry, entry", "br %a, entry, entry, entry", "%x = ret 1",
    "probe", "probe 3", "probe x", "probe +3", "probe 1_0",
    "%x = call @f(%a) #1", "%x = call @f(%a #1", "%x = call f(%a) #1",
    "call @f() #x", "calls @f() #1", "call@f() #1", "%x = call\t@f(%a) #2",
    "%x = icall %a(%a) #1", "%x = icall %a(%a)(1) #1", "icall %a #1",
    "%x = icall\t%a() #-1", "%x\t=\tmov\t%a", "%x = mov\t%a", "%x=mov %a",
    "%x = add\t%a,\t1", "%x = mov 1.5e3", "%x = mov .5", "%x = mov 5.",
    "%x = mov 1e5", "%x = mov --1", "%x = mov +1", "%x = mov 0x10",
    "%x = mov 1.5.5", "%x = mov @", "%x = mov $", "%x = mov %",
    "ret inf", "ret -nan", "%x = itof 1", "%x = ftoi 1.0", "%x = lnot %a",
]


@pytest.mark.parametrize(
    "text", MALFORMED + [_BODY.format(i) for i in INSTRUCTIONS]
)
def test_hand_written_lines_match_the_reference(text):
    _assert_same(text)
    header = "isom {} crc32 {}\n".format(isom.ISOM_VERSION, isom._checksum(text))
    _assert_same(header + text)
