"""Flag-safety analysis (rules FPS201-FPS204).

Detects the code shapes that make aggressive compiler-flag versions
unsafe or pointless, per kernel:

* **FPS201** — an innermost loop performs a non-associative
  floating-point reduction; ``-funsafe-math-optimizations`` versions
  reassociate it and change the rounding (the exact gate the compiler
  model applies in :func:`repro.gcc.passes.finalize_vectorization`);
* **FPS202** — a parallel loop carries an array dependence through
  shifted subscripts; reordering/vectorizing flag versions are unsafe;
* **FPS203** — a call-dense loop where ``-fno-inline`` versions only
  pessimize;
* **FPS204** — the interprocedural variant of FPS201: a callee
  reachable from a loop contains an FP reduction, so the caller's
  fast-math versions inherit the hazard (propagated bottom-up over
  the :class:`~repro.analysis.interproc.CallGraph`).

Besides diagnostics, the module renders a :class:`FlagSafetyVerdict`
per unit: the machine-readable list of unsafe and pointless flags,
which :func:`unsafe_config_labels` maps to flag configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.interproc import build_call_graph
from repro.analysis.rules import RULES
from repro.cir import ast
from repro.cir.analysis import LoopInfo, census, collect_loops
from repro.cir.printer import SourceMap
from repro.polybench.workload import (
    _has_loop_carried_dependence,
    _is_reduction_loop,
)

__all__ = [
    "FlagSafetyVerdict",
    "check_unit_flag_safety",
    "flag_safety_verdict",
    "unsafe_config_labels",
]

#: Calls per body operation above which a loop counts as call-dense.
CALL_DENSE_THRESHOLD = 0.02


def _line(lines: Optional[SourceMap], node: ast.Node) -> Optional[int]:
    return lines.line_of(node) if lines is not None else None


def _diagnose(
    rule: str,
    message: str,
    *,
    filename: str,
    function: Optional[str],
    node: ast.Node,
    lines: Optional[SourceMap],
    phase: str,
    hint: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        severity=RULES[rule].severity,
        message=message,
        file=filename,
        function=function,
        line=_line(lines, node),
        hint=hint,
        phase=phase,
        anchor_id=id(node),
    )


def _fp_reduction_loops(func: ast.FunctionDef) -> List[LoopInfo]:
    """Innermost loops that accumulate into an iv-invariant location."""
    found = []
    for info in collect_loops(func.body):
        if info.children:
            continue
        iv = info.induction_variable
        if iv is not None and _is_reduction_loop(info.node, iv):
            found.append(info)
    return found


def _dependent_loops(func: ast.FunctionDef) -> List[LoopInfo]:
    """Outermost loops whose body carries a shifted-subscript dependence."""
    found = []
    for info in collect_loops(func.body):
        if info.parent is not None:
            continue
        iv = info.induction_variable
        if iv is not None and _has_loop_carried_dependence(info.node, iv):
            found.append(info)
    return found


def _call_dense_loops(
    func: ast.FunctionDef, defined: Set[str]
) -> List[Tuple[LoopInfo, float]]:
    """Innermost loops whose call density crosses the threshold.

    Only calls to functions *defined in the unit* count: those are the
    ones the inliner could have absorbed, so only they make
    ``-fno-inline`` versions pessimizing.
    """
    from repro.cir.visitor import walk

    found = []
    for info in collect_loops(func.body):
        if info.children:
            continue
        body_census = census(info.node.body)
        calls = sum(
            1
            for node in walk(info.node.body)
            if isinstance(node, ast.Call) and node.name in defined
        )
        total = max(1, body_census.total_ops)
        density = calls / total
        if calls and density >= CALL_DENSE_THRESHOLD:
            found.append((info, density))
    return found


def _reduction_carriers(unit: ast.TranslationUnit) -> Set[str]:
    """Functions containing (or transitively calling into) an FP
    reduction, propagated bottom-up over the call graph."""
    graph = build_call_graph(unit)
    functions = {func.name: func for func in unit.functions()}
    carriers: Set[str] = set()
    for name in graph.bottom_up():
        func = functions[name]
        if _fp_reduction_loops(func):
            carriers.add(name)
        elif any(callee in carriers for callee in graph.callees(name)):
            carriers.add(name)
    return carriers


def check_unit_flag_safety(
    unit: ast.TranslationUnit,
    filename: str,
    lines: Optional[SourceMap] = None,
    phase: str = "pristine",
) -> List[Diagnostic]:
    """All FPS2xx diagnostics of one translation unit."""
    diagnostics: List[Diagnostic] = []
    defined = {func.name for func in unit.functions()}
    carriers = _reduction_carriers(unit)
    graph = build_call_graph(unit)
    from repro.cir.visitor import walk

    for func in unit.functions():
        own_reductions = _fp_reduction_loops(func)
        for info in own_reductions:
            iv = info.induction_variable
            diagnostics.append(
                _diagnose(
                    "FPS201",
                    f"innermost loop over {iv!r} accumulates a floating-point "
                    f"reduction; fast-math versions reassociate it",
                    filename=filename,
                    function=func.name,
                    node=info.node,
                    lines=lines,
                    phase=phase,
                    hint=(
                        "results of -funsafe-math-optimizations versions "
                        "differ bitwise; keep them out of the lattice, or "
                        "suppress with '#pragma socrates suppress(FPS201)' "
                        "if the kernel tolerates reassociated rounding"
                    ),
                )
            )
        for info in _dependent_loops(func):
            iv = info.induction_variable
            diagnostics.append(
                _diagnose(
                    "FPS202",
                    f"loop over {iv!r} reads elements written by other "
                    f"iterations (shifted subscript): reordering flag "
                    f"versions are unsafe",
                    filename=filename,
                    function=func.name,
                    node=info.node,
                    lines=lines,
                    phase=phase,
                    hint=(
                        "vectorizing/reassociating flag versions cannot be "
                        "applied to this nest; aggressive lattice points are "
                        "wasted evaluations here"
                    ),
                )
            )
        for info, density in _call_dense_loops(func, defined):
            diagnostics.append(
                _diagnose(
                    "FPS203",
                    f"loop body is call-dense ({density:.0%} of operations "
                    f"are calls): -fno-inline versions pessimize it",
                    filename=filename,
                    function=func.name,
                    node=info.node,
                    lines=lines,
                    phase=phase,
                    hint=(
                        "drop -fno-inline configurations from this kernel's "
                        "flag lattice; they keep every call out-of-line"
                    ),
                )
            )
        # interprocedural: a loop calling into a reduction carrier
        if func.name in carriers and not own_reductions:
            flagged: Set[int] = set()
            for info in collect_loops(func.body):
                for node in walk(info.node.body):
                    if (
                        isinstance(node, ast.Call)
                        and node.name in carriers
                        and node.name in graph.callees(func.name)
                        and id(info.node) not in flagged
                    ):
                        flagged.add(id(info.node))
                        diagnostics.append(
                            _diagnose(
                                "FPS204",
                                f"call to {node.name!r} reaches a floating-"
                                f"point reduction: fast-math versions of "
                                f"this loop inherit the hazard",
                                filename=filename,
                                function=func.name,
                                node=info.node,
                                lines=lines,
                                phase=phase,
                                hint=(
                                    "the callee's reduction makes "
                                    "reassociating flags unsafe here too; "
                                    "treat this nest like FPS201"
                                ),
                            )
                        )
                        break
    return diagnostics


@dataclass(frozen=True)
class FlagSafetyVerdict:
    """Machine-readable flag-safety outcome for one translation unit.

    ``unsafe_flags`` are :class:`repro.gcc.flags.Flag` names whose
    versions change results (fast-math on reductions/dependences);
    ``pointless_flags`` are names whose versions cannot help (no-inline
    with no inlinable calls, or call-dense bodies).  Rule ids record
    *why* for the audit trail.
    """

    unsafe_flags: Tuple[str, ...]
    pointless_flags: Tuple[str, ...]
    rules: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "unsafe_flags": list(self.unsafe_flags),
            "pointless_flags": list(self.pointless_flags),
            "rules": list(self.rules),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FlagSafetyVerdict":
        return cls(
            unsafe_flags=tuple(data.get("unsafe_flags", ())),  # type: ignore[arg-type]
            pointless_flags=tuple(data.get("pointless_flags", ())),  # type: ignore[arg-type]
            rules=tuple(data.get("rules", ())),  # type: ignore[arg-type]
        )


def flag_safety_verdict(
    unit: ast.TranslationUnit, kernel: Optional[str] = None
) -> FlagSafetyVerdict:
    """Summarize FPS verdicts for ``kernel`` (or the whole unit)."""
    functions = (
        [unit.function(kernel)] if kernel is not None else list(unit.functions())
    )
    carriers = _reduction_carriers(unit)
    defined = {func.name for func in unit.functions()}
    unsafe: List[str] = []
    pointless: List[str] = []
    rules: List[str] = []
    for func in functions:
        if func is None:
            continue
        if _fp_reduction_loops(func) or func.name in carriers:
            if "UNSAFE_MATH" not in unsafe:
                unsafe.append("UNSAFE_MATH")
            rule = "FPS201" if _fp_reduction_loops(func) else "FPS204"
            if rule not in rules:
                rules.append(rule)
        if _dependent_loops(func):
            if "UNSAFE_MATH" not in unsafe:
                unsafe.append("UNSAFE_MATH")
            if "FPS202" not in rules:
                rules.append("FPS202")
        if _call_dense_loops(func, defined):
            if "NO_INLINE_FUNCTIONS" not in pointless:
                pointless.append("NO_INLINE_FUNCTIONS")
            if "FPS203" not in rules:
                rules.append("FPS203")
    return FlagSafetyVerdict(
        unsafe_flags=tuple(unsafe),
        pointless_flags=tuple(pointless),
        rules=tuple(rules),
    )


def unsafe_config_labels(
    verdict: FlagSafetyVerdict, configs: Sequence
) -> Tuple[str, ...]:
    """Labels of flag configurations carrying an unsafe flag."""
    from repro.gcc.flags import Flag

    unsafe = {Flag[name] for name in verdict.unsafe_flags if name in Flag.__members__}
    if not unsafe:
        return ()
    return tuple(
        config.label
        for config in configs
        if any(config.has(flag) for flag in unsafe)
    )
