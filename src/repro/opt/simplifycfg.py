"""Control-flow graph simplification.

- fold ``br const, A, B`` to ``jmp`` (constprop usually did it already),
- collapse ``br c, A, A`` to ``jmp A``,
- thread jumps through empty forwarding blocks (a block containing only
  ``jmp``),
- merge a block into its unique successor when that successor has a
  unique predecessor,
- delete unreachable blocks.

Inlining splices bodies with glue jumps everywhere; this pass is what
re-forms the long straight-line regions the back end then schedules.
"""

from __future__ import annotations

from typing import Dict

from ..ir.instructions import Branch, Jump
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.values import Imm


def simplify_cfg(program: Program, proc: Procedure) -> bool:
    changed = False
    for _ in range(10):
        if not _one_round(proc):
            break
        changed = True
    return changed


def _one_round(proc: Procedure) -> bool:
    changed = False

    # Fold constant and degenerate branches.
    for block in proc.blocks.values():
        term = block.terminator
        if isinstance(term, Branch):
            if isinstance(term.cond, Imm):
                target = term.then_target if term.cond.value else term.else_target
                block.instrs[-1] = Jump(target)
                changed = True
            elif term.then_target == term.else_target:
                block.instrs[-1] = Jump(term.then_target)
                changed = True

    # Thread jumps through empty forwarding blocks.
    forwarding: Dict[str, str] = {}
    for label, block in proc.blocks.items():
        if len(block.instrs) == 1 and isinstance(block.instrs[0], Jump):
            forwarding[label] = block.instrs[0].target

    def resolve(label: str) -> str:
        seen = set()
        while label in forwarding and label not in seen:
            seen.add(label)
            label = forwarding[label]
        return label

    if forwarding:
        mapping = {label: resolve(label) for label in forwarding}
        # A self-loop of empty blocks resolves to itself; skip those.
        mapping = {k: v for k, v in mapping.items() if k != v}
        if mapping:
            for block in proc.blocks.values():
                term = block.terminator
                if term is not None and any(t in mapping for t in term.targets()):
                    term.retarget(mapping)
                    changed = True
            if proc.entry in mapping:
                # Keep the entry block itself; only its jump threads.
                pass

    if changed:
        # The folds and the threading rewrote terminators.
        proc.drop_cfg_facts()

    # Remove unreachable blocks.
    reachable = proc.reachable_labels()
    for label in [l for l in proc.blocks if l not in reachable]:
        proc.remove_block(label)
        changed = True

    # Merge straight-line pairs: A ends in jmp B, B has exactly one
    # predecessor (A), and B is not the entry.
    preds = proc.predecessors()
    for label in list(proc.blocks):
        block = proc.blocks.get(label)
        if block is None:
            continue
        term = block.terminator
        if not isinstance(term, Jump):
            continue
        succ_label = term.target
        if succ_label == label or succ_label == proc.entry:
            continue
        if len(preds.get(succ_label, [])) != 1:
            continue
        succ = proc.blocks[succ_label]
        block.instrs = block.instrs[:-1] + succ.instrs
        # Profile counts: the merged block executes as often as A did.
        proc.remove_block(succ_label)
        preds = proc.predecessors()
        changed = True

    return changed
