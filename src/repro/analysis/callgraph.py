"""Call graph over module functions (direct calls only — MiniC has no
function pointers)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..ir import Module, Operation


class CallGraph:
    """Caller -> callee edges plus the call sites realising them."""

    def __init__(self, module: Module):
        self.module = module
        self.callees: Dict[str, Set[str]] = {f.name: set() for f in module}
        self.callers: Dict[str, Set[str]] = {f.name: set() for f in module}
        self.call_sites: Dict[str, List[Operation]] = {f.name: [] for f in module}
        for func in module:
            for op in func.operations():
                if op.is_call():
                    callee = op.attrs["callee"]
                    if callee in self.callees:
                        self.callees[func.name].add(callee)
                        self.callers.setdefault(callee, set()).add(func.name)
                        self.call_sites[callee].append(op)

    def bottom_up_order(self) -> List[str]:
        """Callees before callers (recursion broken arbitrarily)."""
        order: List[str] = []
        visited: Set[str] = set()

        def visit(name: str, stack: Set[str]) -> None:
            if name in visited or name in stack:
                return
            stack.add(name)
            for callee in sorted(self.callees.get(name, ())):
                visit(callee, stack)
            stack.remove(name)
            visited.add(name)
            order.append(name)

        for name in self.callees:
            visit(name, set())
        return order

    def sccs(self) -> List[List[str]]:
        """Strongly connected components, callees-first (iterative Tarjan;
        reverse topological order over the condensation)."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work: List[Tuple[str, Iterable[str]]] = [
                (root, iter(sorted(self.callees.get(root, ()))))
            ]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for callee in it:
                    if callee not in index:
                        index[callee] = low[callee] = counter[0]
                        counter[0] += 1
                        stack.append(callee)
                        on_stack.add(callee)
                        work.append(
                            (callee, iter(sorted(self.callees.get(callee, ()))))
                        )
                        advanced = True
                        break
                    if callee in on_stack:
                        low[node] = min(low[node], index[callee])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(sorted(component))

        for name in sorted(self.callees):
            if name not in index:
                strongconnect(name)
        return sccs

    def recursive(self) -> Set[str]:
        """Functions on a call cycle, self-recursion included: their entry
        facts cannot be computed top-down and must be pinned to top."""
        return {
            name
            for component in self.sccs()
            for name in component
            if len(component) > 1 or name in self.callees[name]
        }
