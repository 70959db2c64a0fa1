"""Interprocedural analysis over a translation unit.

Builds the direct-call graph of a :class:`~repro.cir.ast.TranslationUnit`
and orders its functions bottom-up (callees before callers).  Recursive
call cycles are detected by iterative peeling and placed last, so the
flag-safety rules (:mod:`repro.analysis.flagsafety`) can propagate
per-function facts from callees to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.cir import ast
from repro.cir.visitor import walk

__all__ = [
    "CallGraph",
    "build_call_graph",
]


@dataclass(frozen=True)
class CallGraph:
    """Who calls whom inside one translation unit."""

    nodes: Tuple[str, ...]
    edges: Mapping[str, Tuple[str, ...]]
    external: Mapping[str, Tuple[str, ...]]

    def callees(self, name: str) -> Tuple[str, ...]:
        """Defined functions called (directly) by ``name``."""
        return self.edges.get(name, ())

    def callers(self, name: str) -> Tuple[str, ...]:
        return tuple(
            caller for caller in self.nodes if name in self.edges.get(caller, ())
        )

    def external_callees(self, name: str) -> Tuple[str, ...]:
        """Called names with no definition in the unit (libc, math)."""
        return self.external.get(name, ())

    def recursive_functions(self) -> FrozenSet[str]:
        """Functions on a call cycle (including self-recursion)."""
        remaining = {name: set(self.edges.get(name, ())) for name in self.nodes}
        changed = True
        while changed:
            changed = False
            for name in list(remaining):
                if not remaining[name]:
                    del remaining[name]
                    for callees in remaining.values():
                        if name in callees:
                            callees.discard(name)
                            changed = True
                    changed = True
        return frozenset(remaining)

    def bottom_up(self) -> Tuple[str, ...]:
        """Callees before callers; cycle members appear last, in
        definition order."""
        recursive = self.recursive_functions()
        order: List[str] = []
        placed = set(recursive)
        remaining = [name for name in self.nodes if name not in recursive]
        while remaining:
            progressed = False
            for name in list(remaining):
                if all(
                    callee in placed or callee in order
                    for callee in self.edges.get(name, ())
                ):
                    order.append(name)
                    remaining.remove(name)
                    progressed = True
            if not progressed:  # pragma: no cover - cycles already peeled
                order.extend(remaining)
                break
        order.extend(name for name in self.nodes if name in recursive)
        return tuple(order)


def build_call_graph(unit: ast.TranslationUnit) -> CallGraph:
    """The direct-call graph of all functions defined in ``unit``."""
    defined = tuple(func.name for func in unit.functions())
    defined_set = set(defined)
    edges: Dict[str, Tuple[str, ...]] = {}
    external: Dict[str, Tuple[str, ...]] = {}
    for func in unit.functions():
        internal: List[str] = []
        outside: List[str] = []
        seen_internal: set = set()
        seen_external: set = set()
        for node in walk(func.body):
            if not (isinstance(node, ast.Call) and node.name):
                continue
            if node.name in defined_set:
                if node.name not in seen_internal:
                    seen_internal.add(node.name)
                    internal.append(node.name)
            elif node.name not in seen_external:
                seen_external.add(node.name)
                outside.append(node.name)
        edges[func.name] = tuple(internal)
        external[func.name] = tuple(outside)
    return CallGraph(nodes=defined, edges=edges, external=external)
