"""Code layout: assign every IR instruction a code address.

Procedures are laid out contiguously, module by module, in program
order; each IR instruction occupies one 4-byte slot.  The layout is the
machine model's bridge from interpreter events (procedure, block,
index) to instruction-cache addresses — and it is where inlining's code
expansion becomes visible as a larger I-cache footprint.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir.program import Program

CODE_BASE = 0x10000
INSTR_BYTES = 4


class CodeLayout:
    """Maps (procedure, block label) to the block's base code address."""

    def __init__(self, program: Program):
        self.block_addrs: Dict[Tuple[str, str], int] = {}
        self.proc_addrs: Dict[str, int] = {}
        addr = CODE_BASE
        for mod in program.modules.values():
            for proc in mod.procs.values():
                self.proc_addrs[proc.name] = addr
                # Entry block first, then remaining blocks in RPO.
                rpo = proc.rpo_labels()
                seen = set(rpo)
                ordered = rpo + [l for l in proc.blocks if l not in seen]
                for label in ordered:
                    self.block_addrs[(proc.name, label)] = addr
                    addr += len(proc.blocks[label]) * INSTR_BYTES
        self.code_bytes = addr - CODE_BASE

    def instr_addr(self, proc_name: str, label: str, index: int) -> int:
        base = self.block_addrs.get((proc_name, label))
        if base is None:
            # A block created after layout (should not happen: layout is
            # taken on the final image); fall back to the procedure base.
            return self.proc_addrs.get(proc_name, CODE_BASE)
        return base + index * INSTR_BYTES
