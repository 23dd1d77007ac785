"""Procedures: named CFGs with parameters, attributes, and linkage.

Procedure names are unique program-wide.  The front end mangles
file-static functions to ``name@module`` so that the flat program symbol
table never collides; *linkage* records whether the symbol is visible
outside its module.  When HLO moves code between modules it may need to
flip a static's linkage to global ("promotion", Section 2.3).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from .basicblock import BasicBlock
from .instructions import CALL_INSTRS, Alloca, Call, ICall, Instr
from .types import Signature, Type
from .values import Reg

# Linkage kinds.
LINK_GLOBAL = "global"  # visible to every module
LINK_STATIC = "static"  # file-scope; callable only from its own module
LINK_EXTERN = "extern"  # declared but defined outside the program

# Recognised procedure attributes.
ATTR_VARARGS = "varargs"
ATTR_NOINLINE = "noinline"  # user directive: never inline this callee
ATTR_ALWAYS_INLINE = "always_inline"  # user directive: inline when legal
ATTR_FP_REASSOC = "fp_reassoc"  # float reassociation permitted in this body
ATTR_NOCLONE = "noclone"  # user directive: never clone this callee

KNOWN_ATTRS = frozenset(
    [ATTR_VARARGS, ATTR_NOINLINE, ATTR_ALWAYS_INLINE, ATTR_FP_REASSOC, ATTR_NOCLONE]
)


class CFGFacts:
    """What a procedure's CFG alone determines, each computed on first read.

    The CFG is the block labels, each block's terminator targets and
    the entry.  Each field stays ``None`` until its reader fills it:
    :meth:`Procedure.predecessors`, :meth:`~Procedure.rpo_labels` and
    :meth:`~Procedure.reachable_labels`; ``analysis.loops.find_loops``
    (whose dominator tree has no other reader, so it is not kept);
    ``analysis.freq.static_block_freqs``.  Every caller gets the same
    objects, so no caller may change them.
    """

    __slots__ = ("preds", "rpo", "reachable", "loops", "static_freqs")

    def __init__(self) -> None:
        self.preds: Optional[Dict[str, List[str]]] = None
        self.rpo: Optional[List[str]] = None
        self.reachable: Optional[Set[str]] = None
        self.loops: Optional[list] = None  # of analysis.loops.Loop
        self.static_freqs: Optional[Dict[str, float]] = None


class Procedure:
    """One procedure: an ordered mapping of labelled basic blocks."""

    def __init__(
        self,
        name: str,
        params: List[Tuple[str, Type]],
        ret_type: Type = Type.INT,
        module: str = "",
        linkage: str = LINK_GLOBAL,
        attrs: Optional[Set[str]] = None,
    ):
        self.name = name
        self.params = list(params)  # [(register name, type)]
        self.ret_type = ret_type
        self.module = module
        self.linkage = linkage
        self.attrs: Set[str] = set(attrs) if attrs else set()
        unknown = self.attrs - KNOWN_ATTRS
        if unknown:
            raise ValueError("unknown attrs: {}".format(sorted(unknown)))
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry: Optional[str] = None
        # Set by the scalar optimizer when the default pipeline changes
        # nothing here; every other edit to the body clears it
        # (repro.opt.pass_manager).
        self.at_fixed_point = False
        # The next suffix new_reg / new_label try; snapshots save and
        # restore them with the body, so a rolled-back procedure hands
        # out the same names again.
        self._reg_counter = 0
        self._label_counter = 0
        # The facts read since the CFG last changed (CFGFacts), or None;
        # every write to the block list, the entry or a terminator
        # drops them (drop_cfg_facts).
        self._cfg_facts: Optional[CFGFacts] = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def signature(self) -> Signature:
        return Signature(
            tuple(ty for _, ty in self.params),
            self.ret_type,
            ATTR_VARARGS in self.attrs,
        )

    def param_regs(self) -> List[Reg]:
        return [Reg(name) for name, _ in self.params]

    def add_block(self, block: BasicBlock, entry: bool = False) -> BasicBlock:
        if block.label in self.blocks:
            raise ValueError("duplicate block label: {}".format(block.label))
        self.blocks[block.label] = block
        if entry or self.entry is None:
            self.entry = block.label
        self.drop_cfg_facts()
        return block

    def new_block(self, hint: str = "b") -> BasicBlock:
        return self.add_block(BasicBlock(self.new_label(hint)))

    def remove_block(self, label: str) -> None:
        if label == self.entry:
            raise ValueError("cannot remove entry block {}".format(label))
        del self.blocks[label]
        self.drop_cfg_facts()

    def cfg_facts(self) -> CFGFacts:
        """The record of facts computed on the current CFG (read-only)."""
        facts = self._cfg_facts
        if facts is None:
            facts = self._cfg_facts = CFGFacts()
        return facts

    def drop_cfg_facts(self) -> None:
        """Forget every CFG fact: the block list, the entry or a
        terminator changed.  A site that writes them directly calls
        this once its writes are done, before the next read."""
        self._cfg_facts = None

    def entry_block(self) -> BasicBlock:
        if self.entry is None:
            raise ValueError("procedure {} has no entry block".format(self.name))
        return self.blocks[self.entry]

    def new_reg(self, hint: str = "t", existing: Optional[Set[str]] = None) -> Reg:
        """A register name unused anywhere in this procedure.

        ``existing`` spares the scan: a caller that tracks the names the
        procedure defines (:meth:`reg_names`) as it builds the body
        passes them here.
        """
        if existing is None:
            existing = self.reg_names()
        while True:
            name = "{}{}".format(hint, self._reg_counter)
            self._reg_counter += 1
            if name not in existing:
                return Reg(name)

    def new_label(self, hint: str = "b") -> str:
        while True:
            label = "{}{}".format(hint, self._label_counter)
            self._label_counter += 1
            if label not in self.blocks:
                return label

    def reg_names(self) -> Set[str]:
        names = {name for name, _ in self.params}
        for instr in self.instructions():
            if instr.dest is not None:
                names.add(instr.dest.name)
        return names

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks.values():
            for instr in block:
                yield instr

    def size(self) -> int:
        """Instruction count — the size metric in HLO's cost model."""
        return sum(len(b) for b in self.blocks.values())

    def call_sites(self) -> List[Tuple[BasicBlock, int, Instr]]:
        """All (block, index, call instruction) triples, direct and indirect."""
        sites = []
        for block in self.blocks.values():
            for idx, instr in enumerate(block.instrs):
                if isinstance(instr, CALL_INSTRS):
                    sites.append((block, idx, instr))
        return sites

    def direct_callees(self) -> List[str]:
        return [
            instr.callee
            for _, _, instr in self.call_sites()
            if isinstance(instr, Call)
        ]

    def predecessors(self) -> Dict[str, List[str]]:
        facts = self.cfg_facts()
        if facts.preds is None:
            preds: Dict[str, List[str]] = {label: [] for label in self.blocks}
            for label, block in self.blocks.items():
                for succ in block.successors():
                    if succ in preds:
                        preds[succ].append(label)
            facts.preds = preds
        return facts.preds

    def reachable_labels(self) -> Set[str]:
        facts = self.cfg_facts()
        if facts.reachable is None:
            facts.reachable = set(self.rpo_labels())
        return facts.reachable

    def rpo_labels(self) -> List[str]:
        """Reachable block labels in reverse postorder from the entry."""
        facts = self.cfg_facts()
        if facts.rpo is not None:
            return facts.rpo
        seen: Set[str] = set()
        order: List[str] = []

        def visit(label: str) -> None:
            stack = [(label, iter(self.blocks[label].successors()))]
            seen.add(label)
            while stack:
                cur, succs = stack[-1]
                advanced = False
                for succ in succs:
                    if succ in self.blocks and succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].successors())))
                        advanced = True
                        break
                if not advanced:
                    order.append(cur)
                    stack.pop()

        if self.entry in self.blocks:  # an entry naming no block reaches nothing
            visit(self.entry)
        order.reverse()
        facts.rpo = order
        return order

    @property
    def uses_dynamic_alloca(self) -> bool:
        return any(
            isinstance(i, Alloca) and i.is_dynamic for i in self.instructions()
        )

    def has_indirect_calls(self) -> bool:
        return any(isinstance(i, ICall) for i in self.instructions())

    def __str__(self) -> str:
        params = ", ".join("%{}: {}".format(n, t) for n, t in self.params)
        attrs = " [{}]".format(", ".join(sorted(self.attrs))) if self.attrs else ""
        head = "proc @{}({}) -> {} {}{}".format(
            self.name, params, self.ret_type, self.linkage, attrs
        )
        labels = self.rpo_labels()
        rest = [l for l in self.blocks if l not in set(labels)]
        body = "\n".join(str(self.blocks[l]) for l in labels + rest)
        return "{} {{\n{}\n}}".format(head, body)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Procedure @{} ({} blocks, {} instrs)>".format(
            self.name, len(self.blocks), self.size()
        )
