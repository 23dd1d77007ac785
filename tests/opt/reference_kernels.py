"""The scalar kernels as they were before they learned to skip work.

``tests/opt/test_kernel_oracles.py`` checks every call the pipeline
makes to the production kernels against these, which do all the work
every time:

- :func:`liveness` sweeps every block round-robin until nothing moves;
- :func:`local_cse` scans both tables for every definition it kills;
- :func:`licm` computes dominators and loops for every procedure;
- :func:`eliminate_dead_calls` computes liveness in every procedure,
  with :func:`side_effect_free_procs` proving acyclicity, by its own
  back-edge scan, before it looks at instructions.

Apart from their imports (LICM's hoisting step is the production one,
which did not change; its loop search is the production one without
the check for a retreating edge that spares a loop-free procedure its
dominators) and LICM sorting its own list of loops, this module is the
old code.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.dominators import dominates, immediate_dominators
from repro.analysis.loops import _find_loops
from repro.analysis.sideeffects import PURE_BUILTINS
from repro.ir.instructions import BinOp, Call, ICall, Load, Mov, Store, UnOp
from repro.ir.ops import COMMUTATIVE_OPS
from repro.ir.procedure import Procedure
from repro.ir.program import Program
from repro.ir.values import Reg
from repro.opt.cse import _flatten, _op_key
from repro.opt.licm import _hoist_from_loop


def liveness(proc: Procedure) -> Dict[str, Set[str]]:
    """Live-out register-name sets per block label."""
    use: Dict[str, Set[str]] = {}
    define: Dict[str, Set[str]] = {}
    for label, block in proc.blocks.items():
        u: Set[str] = set()
        d: Set[str] = set()
        for instr in block.instrs:
            for op in instr.uses():
                if isinstance(op, Reg) and op.name not in d:
                    u.add(op.name)
            if instr.dest is not None:
                d.add(instr.dest.name)
        use[label] = u
        define[label] = d

    live_in: Dict[str, Set[str]] = {label: set() for label in proc.blocks}
    live_out: Dict[str, Set[str]] = {label: set() for label in proc.blocks}
    changed = True
    while changed:
        changed = False
        for label, block in proc.blocks.items():
            out: Set[str] = set()
            for succ in block.successors():
                out |= live_in.get(succ, set())
            new_in = use[label] | (out - define[label])
            if out != live_out[label]:
                live_out[label] = out
                changed = True
            if new_in != live_in[label]:
                live_in[label] = new_in
                changed = True
    return live_out


def local_cse(program: Program, proc: Procedure) -> bool:
    changed = False
    for block in proc.blocks.values():
        exprs: Dict[Tuple, Reg] = {}  # expression key -> register holding it
        loads: Dict[Tuple, Reg] = {}  # address key -> register holding the load

        def kill_reg(name: str) -> None:
            for table in (exprs, loads):
                dead = [k for k, v in table.items() if v.name == name]
                for k in dead:
                    del table[k]
                dead_keys = [k for k in table if ("r", name) in k]
                for k in dead_keys:
                    table.pop(k, None)

        for index, instr in enumerate(block.instrs):
            cls = instr.__class__
            key: Optional[Tuple] = None
            table = exprs

            if cls is BinOp:
                a, b = _op_key(instr.lhs), _op_key(instr.rhs)
                if instr.op in COMMUTATIVE_OPS and b < a:
                    a, b = b, a
                key = ("bin", instr.op, a, b)
            elif cls is UnOp:
                key = ("un", instr.op, _op_key(instr.src))
            elif cls is Load:
                key = ("ld", _op_key(instr.addr))
                table = loads
            elif cls is Store:
                loads.clear()
            elif cls is Call or cls is ICall:
                loads.clear()

            if key is not None:
                prior = table.get(key)
                if prior is not None and prior.name != instr.dest.name:
                    block.instrs[index] = Mov(instr.dest, prior)
                    changed = True
                    kill_reg(instr.dest.name)
                    continue

            if instr.dest is not None:
                kill_reg(instr.dest.name)
                if key is not None and ("r", instr.dest.name) not in _flatten(key):
                    table[key] = instr.dest
    return changed


def licm(program: Program, proc: Procedure) -> bool:
    """Hoist invariants out of every natural loop; True when IR changed."""
    loops = _find_loops(proc)
    if not loops:
        return False
    loops = sorted(loops, key=lambda l: len(l.body))
    changed = False
    for loop in loops:
        if _hoist_from_loop(proc, loop):
            changed = True
    return changed


def _cfg_acyclic(proc: Procedure) -> bool:
    idom = immediate_dominators(proc)
    for label in idom:
        for succ in proc.blocks[label].successors():
            if succ in idom and dominates(idom, succ, label):
                return False
    return True


def side_effect_free_procs(program: Program, graph: CallGraph) -> Set[str]:
    """Names of procedures that are removable when their result is unused."""
    free: Dict[str, bool] = {}

    for name in graph.bottom_up_order():
        proc = program.proc(name)
        if proc is None:
            continue
        free[name] = _proc_is_free(program, graph, proc, free)
    return {name for name, ok in free.items() if ok}


def _proc_is_free(
    program: Program, graph: CallGraph, proc: Procedure, free: Dict[str, bool]
) -> bool:
    if graph.in_cycle(proc.name):
        return False
    if not _cfg_acyclic(proc):
        return False
    for instr in proc.instructions():
        if isinstance(instr, Store):
            return False
        if isinstance(instr, ICall):
            return False
        if isinstance(instr, Call):
            callee = instr.callee
            if program.is_defined(callee):
                if not free.get(callee, False):
                    return False
            elif callee not in PURE_BUILTINS:
                return False
    return True


def eliminate_dead_calls(program: Program) -> bool:
    graph = CallGraph(program)
    free = side_effect_free_procs(program, graph)
    if not free:
        return False
    changed = False
    for proc in program.all_procs():
        if _eliminate_in_proc(program, proc, free):
            changed = True
    return changed


def _eliminate_in_proc(program: Program, proc: Procedure, free: Set[str]) -> bool:
    """Drop ``proc``'s dead calls to ``free``; only changed blocks are written."""
    changed = False
    live_out = liveness(proc)
    for label, block in proc.blocks.items():
        live = set(live_out[label])
        kept = []
        dropped = False
        for instr in reversed(block.instrs):
            if isinstance(instr, Call) and instr.callee in free:
                dead_result = instr.dest is None or instr.dest.name not in live
                if dead_result:
                    dropped = True
                    continue
            if instr.dest is not None:
                live.discard(instr.dest.name)
            for op in instr.uses():
                if isinstance(op, Reg):
                    live.add(op.name)
            kept.append(instr)
        if dropped:
            program.report_body(proc)
            kept.reverse()
            block.instrs = kept
            changed = True
    return changed
