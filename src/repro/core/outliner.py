"""Aggressive outlining — the paper's future-work complement to inlining.

Section 5: "We are also contemplating using aggressive outlining as a
complement to aggressive inlining, to help further focus the global
optimizer on the truly important stretches of code."

This pass extracts *cold* basic blocks out of procedures into fresh
procedures, replacing each with a call.  Two effects make it a
complement to inlining under HLO's quadratic budget:

- the hot body shrinks, so the back end optimizes a smaller routine and
  the code the I-cache sees on the hot path is denser;
- ``Σ size(R)²`` drops (splitting a routine strictly reduces the sum of
  squares), so the same budget percentage buys *more hot-path inlining*
  afterwards.  When enabled, outlining therefore runs before the
  clone/inline loop and the budget is measured on the outlined program.

A block is outlinable when:

- it is cold: annotated profile count is 0 (or below ``cold_ratio`` of
  the procedure entry count), or — without profile data — its static
  frequency estimate is below ``cold_ratio``;
- it is big enough to be worth a call (``min_block_size``);
- it has at most one live-out register (our calls return one value);
- its live-ins fit the parameter budget (``max_params``);
- it contains no ``alloca`` (outlining would change the allocation's
  frame and lifetime) and no probes;
- the enclosing procedure is not varargs (``va_arg``/``va_count`` read
  the *current* frame) and the block is not the entry block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.freq import static_block_freqs
from ..ir.basicblock import BasicBlock
from ..ir.instructions import Alloca, Call, Jump, Probe, Ret
from ..ir.procedure import ATTR_VARARGS, LINK_GLOBAL, Procedure
from ..ir.program import Program
from ..ir.types import Type
from ..ir.values import Reg
from ..opt.dce import liveness
from .report import HLOReport

DEFAULT_COLD_RATIO = 0.05
DEFAULT_MIN_BLOCK_SIZE = 4
DEFAULT_MAX_PARAMS = 6


class OutlineCandidate:
    __slots__ = ("proc", "label", "live_in", "live_out")

    def __init__(self, proc: Procedure, label: str, live_in: List[str], live_out: Optional[str]):
        self.proc = proc
        self.label = label
        self.live_in = live_in
        self.live_out = live_out


def _block_uses_and_defs(block: BasicBlock) -> Tuple[Set[str], Set[str]]:
    uses: Set[str] = set()
    defs: Set[str] = set()
    for instr in block.instrs:
        for op in instr.uses():
            if isinstance(op, Reg) and op.name not in defs:
                uses.add(op.name)
        if instr.dest is not None:
            defs.add(instr.dest.name)
    return uses, defs


def find_outline_candidates(
    proc: Procedure,
    cold_ratio: float = DEFAULT_COLD_RATIO,
    min_block_size: int = DEFAULT_MIN_BLOCK_SIZE,
    max_params: int = DEFAULT_MAX_PARAMS,
) -> List[OutlineCandidate]:
    """Cold, extractable blocks of one procedure."""
    if ATTR_VARARGS in proc.attrs or proc.entry is None:
        return []
    entry_block = proc.blocks.get(proc.entry)
    entry_count = entry_block.profile_count if entry_block else None

    static_freqs: Optional[Dict[str, float]] = None
    if entry_count is None or entry_count <= 0:
        static_freqs = static_block_freqs(proc)

    live_out_sets = liveness(proc)
    reachable = proc.reachable_labels()
    candidates: List[OutlineCandidate] = []

    for label, block in proc.blocks.items():
        if label == proc.entry or label not in reachable:
            continue
        if len(block.instrs) < min_block_size:
            continue
        if not _is_cold(block, entry_count, cold_ratio, static_freqs, label):
            continue
        if any(isinstance(i, (Alloca, Probe)) for i in block.instrs):
            continue
        term = block.terminator
        if term is None or not isinstance(term, (Jump, Ret)):
            continue  # conditional exits would need a return code path

        uses, defs = _block_uses_and_defs(block)
        if len(uses) > max_params:
            continue
        live_after = live_out_sets[label]
        escaping = sorted(defs & live_after)
        if isinstance(term, Ret):
            if escaping:
                continue  # the return value is the only thing escaping
            live_out = None
        else:
            if len(escaping) > 1:
                continue
            live_out = escaping[0] if escaping else None
        candidates.append(OutlineCandidate(proc, label, sorted(uses), live_out))
    return candidates


def _is_cold(
    block: BasicBlock,
    entry_count: Optional[int],
    cold_ratio: float,
    static_freqs: Optional[Dict[str, float]],
    label: str,
) -> bool:
    if entry_count is not None and entry_count > 0:
        count = block.profile_count or 0
        return count <= entry_count * cold_ratio
    if static_freqs is not None:
        return static_freqs.get(label, 1.0) < cold_ratio
    return False


def outline_block(
    program: Program, candidate: OutlineCandidate, report: Optional[HLOReport] = None
) -> Procedure:
    """Extract one candidate block into a fresh procedure."""
    proc = candidate.proc
    block = proc.blocks[candidate.label]
    module = program.modules[proc.module]

    name = _fresh_outline_name(program, proc.name)
    # Parameter types are untracked at the register level; the IR is
    # word-typed at runtime, so INT stands in (floats travel fine —
    # only the verifier's signature arity matters).
    outlined = Procedure(
        name,
        [(reg, Type.INT) for reg in candidate.live_in],
        ret_type=Type.INT if _returns_value(block, candidate) else Type.VOID,
        module=proc.module,
        linkage=LINK_GLOBAL,
    )
    body = BasicBlock("entry")
    term = block.terminator
    for instr in block.body():
        body.instrs.append(instr)
    if isinstance(term, Ret):
        body.instrs.append(term)
        outlined.ret_type = proc.ret_type
    elif candidate.live_out is not None:
        body.instrs.append(Ret(Reg(candidate.live_out)))
    else:
        body.instrs.append(Ret(None))
    body.profile_count = block.profile_count
    outlined.add_block(body, entry=True)
    module.add_proc(outlined)
    program.report_added(outlined)

    # Replace the block's contents with a call (plus the original jump).
    program.report_body(proc)
    args = [Reg(reg) for reg in candidate.live_in]
    site = module.new_site_id()
    if isinstance(term, Ret):
        if proc.ret_type is Type.VOID:
            call = Call(None, name, args, site)
            block.instrs = [call, Ret(None)]
        else:
            result = proc.new_reg("out")
            call = Call(result, name, args, site)
            block.instrs = [call, Ret(result)]
    else:
        dest = Reg(candidate.live_out) if candidate.live_out is not None else None
        call = Call(dest, name, args, site)
        block.instrs = [call, Jump(term.target)]

    if report is not None:
        report.outlines += 1
        report.outlined_procs.append(name)
    return outlined


def _returns_value(block: BasicBlock, candidate: OutlineCandidate) -> bool:
    term = block.terminator
    if isinstance(term, Ret):
        return term.value is not None
    return candidate.live_out is not None


def _fresh_outline_name(program: Program, base: str) -> str:
    counter = 1
    while True:
        name = "{}.o{}".format(base, counter)
        if program.proc(name) is None:
            return name
        counter += 1


def outline_pass(
    program: Program,
    report: Optional[HLOReport] = None,
    cold_ratio: float = DEFAULT_COLD_RATIO,
    min_block_size: int = DEFAULT_MIN_BLOCK_SIZE,
    max_params: int = DEFAULT_MAX_PARAMS,
) -> int:
    """Outline every qualifying cold block; returns the number extracted."""
    performed = 0
    for proc in list(program.all_procs()):
        if proc.name.count(".o"):  # do not re-outline outlined bodies
            continue
        candidates = find_outline_candidates(
            proc, cold_ratio, min_block_size, max_params
        )
        for candidate in candidates:
            outline_block(program, candidate, report)
            performed += 1
    return performed
