"""Body-duplication machinery shared by the inliner and the cloner.

Both transforms copy a procedure body: inlining splices it into the
caller's CFG (registers and labels renamed, parameters bound by moves,
returns rewired to a continuation block); cloning copies it into a new
procedure (names kept, specialized parameters bound by moves in the
entry).  Both must:

- allocate fresh call-site ids for copied call instructions (preserving
  ``origin`` so reports can attribute them),
- scale profile counts: the copy inherits the share of the callee's
  counts attributable to the moved call traffic, and the original keeps
  the remainder (flow conservation is property-tested),
- promote module-static symbols referenced by code that moves across a
  module boundary (Section 2.3: "this information must be promoted to
  global scope");
- report every write to an existing procedure or symbol before making
  it (``Program.report_counts`` / ``report_linkage``), so a guarded
  stage can undo it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.instructions import Call, ICall, Instr
from ..ir.module import Module
from ..ir.procedure import LINK_GLOBAL, LINK_STATIC, Procedure
from ..ir.program import Program
from ..ir.values import FuncRef, GlobalRef, Operand, Reg


class BlockSnapshot:
    """An immutable copy of a procedure body taken before any edits."""

    __slots__ = ("entry", "blocks", "param_names", "entry_count")

    def __init__(self, proc: Procedure):
        self.entry = proc.entry
        self.param_names = [name for name, _ in proc.params]
        self.blocks: List[Tuple[str, List[Instr], Optional[int]]] = [
            (label, [instr.copy() for instr in block.instrs], block.profile_count)
            for label, block in proc.blocks.items()
        ]
        entry_block = proc.blocks.get(proc.entry) if proc.entry else None
        self.entry_count = entry_block.profile_count if entry_block else None


def fresh_names(existing: set, count: int, prefix: str) -> List[str]:
    """``count`` names not present in ``existing`` (which is updated)."""
    names = []
    counter = 0
    while len(names) < count:
        candidate = "{}{}".format(prefix, counter)
        counter += 1
        if candidate not in existing:
            existing.add(candidate)
            names.append(candidate)
    return names


def scale_count(count: Optional[int], ratio: float) -> Optional[int]:
    if count is None:
        return None
    return int(round(count * ratio))


def transfer_ratio(site_count: Optional[int], entry_count: Optional[int]) -> Optional[float]:
    """Fraction of the callee's traffic moving to the copy, if known."""
    if site_count is None or entry_count is None or entry_count <= 0:
        return None
    return min(1.0, site_count / entry_count)


def promote_referenced_statics(
    program: Program,
    instrs: List[Instr],
    destination_module: str,
    on_promote: Optional[Callable[[str], None]] = None,
) -> int:
    """Promote statics referenced by code landing in ``destination_module``.

    Returns the number of symbols promoted.  Mangled names are already
    program-unique, so promotion is purely a linkage flip (the paper
    additionally renames; our front end pre-uniquified).
    """
    promoted = 0

    def consider_proc(name: str) -> None:
        nonlocal promoted
        target = program.proc(name)
        if target is not None and target.linkage == LINK_STATIC:
            if target.module != destination_module:
                program.report_linkage(target)
                target.linkage = LINK_GLOBAL
                promoted += 1
                if on_promote:
                    on_promote("@" + name)

    def consider_global(name: str) -> None:
        nonlocal promoted
        gvar = program.global_var(name)
        if gvar is not None and gvar.linkage == LINK_STATIC:
            if gvar.module != destination_module:
                program.report_linkage(gvar)
                gvar.linkage = LINK_GLOBAL
                promoted += 1
                if on_promote:
                    on_promote("$" + name)

    for instr in instrs:
        if isinstance(instr, Call):
            consider_proc(instr.callee)
        for op in instr.uses():
            if isinstance(op, FuncRef):
                consider_proc(op.name)
            elif isinstance(op, GlobalRef):
                consider_global(op.name)
    return promoted


def splice_body(
    program: Program,
    caller: Procedure,
    caller_module: Module,
    snapshot: BlockSnapshot,
    args: List[Operand],
    result_reg: Optional[Reg],
    continue_label: str,
    count_ratio: Optional[float],
    on_promote: Optional[Callable[[str], None]] = None,
) -> str:
    """Splice a snapshot of a callee body into ``caller``.

    Returns the label of the landing block (parameter binding followed
    by a jump into the copied entry).  The caller must already have
    been split so that ``continue_label`` receives the returns.
    """
    from ..ir.instructions import Jump, Mov, Ret

    existing_regs = caller.reg_names()
    existing_labels = set(caller.blocks)

    # Fresh register names for every register the snapshot defines or
    # uses (parameters included — they become ordinary registers).
    snap_regs = set(snapshot.param_names)
    for _label, instrs, _count in snapshot.blocks:
        for instr in instrs:
            if instr.dest is not None:
                snap_regs.add(instr.dest.name)
            for op in instr.uses():
                if isinstance(op, Reg):
                    snap_regs.add(op.name)
    ordered = sorted(snap_regs)
    new_names = fresh_names(existing_regs, len(ordered), "i")
    reg_map = {old: Reg(new) for old, new in zip(ordered, new_names)}

    label_names = fresh_names(existing_labels, len(snapshot.blocks) + 1, "il")
    label_map = {
        old: new for (old, _i, _c), new in zip(snapshot.blocks, label_names[:-1])
    }
    landing_label = label_names[-1]

    def rename(op: Operand) -> Operand:
        if isinstance(op, Reg):
            return reg_map.get(op.name, op)
        return op

    cross_module = []
    for old_label, instrs, count in snapshot.blocks:
        new_block = BasicBlock(label_map[old_label])
        new_block.profile_count = (
            scale_count(count, count_ratio) if count_ratio is not None else count
        )
        for instr in instrs:
            copied = instr.copy()
            if isinstance(copied, Ret):
                if copied.value is not None and result_reg is not None:
                    value = copied.value
                    if isinstance(value, Reg):
                        value = reg_map.get(value.name, value)
                    mov = Mov(result_reg, value)
                    new_block.instrs.append(mov)
                    cross_module.append(mov)  # a returned FuncRef/GlobalRef
                new_block.instrs.append(Jump(continue_label))
                break  # nothing follows a terminator
            copied.map_operands(rename)
            if copied.dest is not None:
                copied.dest = reg_map.get(copied.dest.name, copied.dest)
            copied.retarget(label_map)
            if isinstance(copied, (Call, ICall)):
                # ``origin`` was preserved by copy(); only the site id
                # must be unique in the receiving module.
                copied.site_id = caller_module.new_site_id()
            new_block.instrs.append(copied)
            cross_module.append(copied)
        caller.blocks[new_block.label] = new_block

    # Landing block: bind parameters, then enter the copied entry.
    landing = BasicBlock(landing_label)
    for param_name, arg in zip(snapshot.param_names, args):
        landing.instrs.append(Mov(reg_map[param_name], arg))
    landing.instrs.append(Jump(label_map[snapshot.entry]))
    caller.blocks[landing_label] = landing

    promote_referenced_statics(program, cross_module, caller.module, on_promote)
    return landing_label


def copy_into_new_proc(
    program: Program,
    clonee: Procedure,
    clonee_module: Module,
    clone_name: str,
    bound_params: Dict[int, Operand],
    count_ratio: Optional[float],
    on_promote: Optional[Callable[[str], None]] = None,
) -> Procedure:
    """Create a clone of ``clonee`` with ``bound_params`` specialized.

    The clone keeps the clonee's register and label names (it is a new
    procedure, so there is no collision), drops the bound parameters
    from its signature, and materializes their values with moves in a
    fresh entry block.  The clone is placed in the clonee's module with
    global linkage (its mangled name is unique program-wide).
    """
    from ..ir.instructions import Jump, Mov

    params = [p for i, p in enumerate(clonee.params) if i not in bound_params]
    clone = Procedure(
        clone_name,
        params,
        ret_type=clonee.ret_type,
        module=clonee.module,
        linkage=LINK_GLOBAL,
        attrs=set(clonee.attrs),
    )

    snapshot = BlockSnapshot(clonee)
    moved_instrs: List[Instr] = []
    for label, instrs, count in snapshot.blocks:
        block = BasicBlock(label)
        block.profile_count = (
            scale_count(count, count_ratio) if count_ratio is not None else count
        )
        for instr in instrs:
            if isinstance(instr, (Call, ICall)):
                instr.site_id = clonee_module.new_site_id()
            block.instrs.append(instr)
            moved_instrs.append(instr)
        clone.blocks[label] = block
    clone.entry = snapshot.entry

    # Specialization prologue: bind the cloned-in parameters.
    prologue_label = clone.new_label("spec")
    prologue = BasicBlock(prologue_label)
    for position, value in sorted(bound_params.items()):
        name = clonee.params[position][0]
        prologue.instrs.append(Mov(Reg(name), value))
    prologue.instrs.append(Jump(clone.entry))
    clone.blocks[prologue_label] = prologue
    clone.entry = prologue_label
    prologue.profile_count = clone.blocks[snapshot.entry].profile_count

    # Constants that were only visible in a caller's module may now sit
    # in this module; promote statics they reference.
    promote_referenced_statics(
        program, list(prologue.instrs) + moved_instrs, clonee.module, on_promote
    )
    return clone


def subtract_moved_counts(
    program: Program, proc: Procedure, ratio: Optional[float]
) -> None:
    """Reduce a procedure's counts by the share moved into a copy."""
    if ratio is None:
        return
    program.report_counts(proc)
    keep = max(0.0, 1.0 - ratio)
    for block in proc.blocks.values():
        if block.profile_count is not None:
            block.profile_count = int(round(block.profile_count * keep))
