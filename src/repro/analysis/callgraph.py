"""Call graph construction.

Used by the function filter (a function is machine specific if anything it
*transitively* calls is machine specific), by unused-function removal in the
server partition, and by the static partitioning baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..ir import instructions as inst
from ..ir.module import Module
from ..ir.values import Function, FunctionRefInit, AggregateInit


class CallGraph:
    def __init__(self, module: Module):
        self.module = module
        # Edges both ways between function names; every function of the
        # module is a node.
        self._callees: Dict[str, Set[str]] = {}
        self._callers: Dict[str, Set[str]] = {}
        self.address_taken: Set[str] = set()
        self._build()

    def _build(self) -> None:
        for fn in self.module.functions.values():
            self._callees[fn.name] = set()
            self._callers[fn.name] = set()
        for fn in self.module.defined_functions():
            for instruction in fn.instructions():
                if isinstance(instruction, inst.Call):
                    callee = instruction.called_function
                    if callee is not None:
                        self._add_edge(fn.name, callee.name)
                # A function used as a plain operand (not a callee) has its
                # address taken — it may be called indirectly from anywhere.
                operands = (instruction.operands[1:]
                            if isinstance(instruction, inst.Call)
                            else instruction.operands)
                for op in operands:
                    if isinstance(op, Function):
                        self.address_taken.add(op.name)
        for gv in self.module.globals.values():
            self._scan_initializer(gv.initializer)
        # Address-taken functions are conservatively callable from any
        # function containing an indirect call.
        indirect_callers = [
            fn.name for fn in self.module.defined_functions()
            if any(isinstance(i, inst.Call) and i.is_indirect
                   for i in fn.instructions())
        ]
        for caller in indirect_callers:
            for target in self.address_taken:
                if target in self.module.functions:
                    self._add_edge(caller, target)

    def _add_edge(self, caller: str, callee: str) -> None:
        self._callees.setdefault(caller, set()).add(callee)
        self._callers.setdefault(caller, set())
        self._callers.setdefault(callee, set()).add(caller)
        self._callees.setdefault(callee, set())

    def _scan_initializer(self, init) -> None:
        if isinstance(init, FunctionRefInit):
            self.address_taken.add(init.function_name)
        elif isinstance(init, AggregateInit):
            for element in init.elements:
                self._scan_initializer(element)

    def callees(self, name: str) -> List[str]:
        return sorted(self._callees[name])

    def callers(self, name: str) -> List[str]:
        return sorted(self._callers[name])

    def transitive_callees(self, name: str) -> Set[str]:
        """Every function ``name`` calls, directly or through others;
        ``name`` itself is excluded even when it is recursive."""
        if name not in self._callees:
            return set()
        seen = {name}
        pending = [name]
        while pending:
            for callee in self._callees[pending.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    pending.append(callee)
        seen.discard(name)
        return seen

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        seen: Set[str] = set()
        for root in roots:
            if root in self._callees:
                seen.add(root)
                seen |= self.transitive_callees(root)
        return seen
