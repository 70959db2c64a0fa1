"""Static analyses over the CIR.

These power the Milepost feature extractor, the workload-profile
derivation and the LARA attribute queries: loop-nest discovery,
operation census and simple trip-count evaluation against a macro
environment (Polybench dataset sizes are ``#define`` constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cir import ast
from repro.cir.visitor import walk


@dataclass
class LoopInfo:
    """One ``for`` loop with nesting metadata."""

    node: ast.For
    depth: int  # 0 = outermost
    parent: Optional["LoopInfo"] = None
    children: List["LoopInfo"] = field(default_factory=list)

    @property
    def induction_variable(self) -> Optional[str]:
        """The loop counter name, when the init is a simple decl/assign.

        When the init clause is empty or not a recognizable counter
        initialization (``for (; i < n; i++)``, comma inits), the step
        expression is consulted instead: a ``i++``/``i--``/``i += c``/
        ``i = i + c`` step names the counter just as reliably.
        """
        init = self.node.init
        if isinstance(init, ast.Decl):
            return init.name
        if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign):
            lhs = init.expr.lhs
            if isinstance(lhs, ast.Ident):
                return lhs.name
        step = self.node.step
        if (
            isinstance(step, ast.UnaryOp)
            and step.op in ("++", "--")
            and isinstance(step.operand, ast.Ident)
        ):
            return step.operand.name
        if isinstance(step, ast.Assign) and isinstance(step.lhs, ast.Ident):
            return step.lhs.name
        return None

    def bounds(self, env: Optional[Dict[str, int]] = None) -> Optional[Tuple[int, int]]:
        """(init value, condition bound) of the loop when evaluable."""
        env = env or {}
        lower = _init_value(self.node.init, env)
        cond = self.node.cond
        if lower is None or not isinstance(cond, ast.BinOp):
            return None
        upper = eval_const(cond.rhs, env)
        if upper is None:
            return None
        return lower, upper

    def midpoint(self, env: Optional[Dict[str, int]] = None) -> Optional[int]:
        """Average value of the induction variable over the loop range."""
        bounds = self.bounds(env)
        if bounds is None:
            return None
        return (bounds[0] + bounds[1]) // 2

    def trip_count(self, env: Optional[Dict[str, int]] = None) -> Optional[int]:
        """Evaluate the loop trip count under macro environment ``env``.

        Handles the canonical Polybench shape ``for (i = L; i < U; i++)``
        (also ``<=``/``>``/``>=``, non-unit additive steps and the
        ``i = i + c`` step form).  Returns ``None`` when the bounds are
        not statically evaluable or the step runs away from the bound
        (a non-terminating loop under C semantics).
        """
        env = env or {}
        lower = _init_value(self.node.init, env)
        cond = self.node.cond
        if lower is None or not isinstance(cond, ast.BinOp):
            return None
        upper = eval_const(cond.rhs, env)
        if upper is None:
            return None
        step = _step_value(self.node.step, env)
        if step is None or step == 0:
            return None
        if cond.op in ("<", "<="):
            if step < 0:
                return None  # counts away from an upper bound: no trip count
            span = upper - lower + (1 if cond.op == "<=" else 0)
        elif cond.op in (">", ">="):
            if step > 0:
                return None  # counts away from a lower bound: no trip count
            span = lower - upper + (1 if cond.op == ">=" else 0)
        else:
            return None
        step = abs(step)
        if span <= 0:
            return 0
        return (span + step - 1) // step


def _init_value(init: Optional[ast.Stmt], env: Dict[str, int]) -> Optional[int]:
    if isinstance(init, ast.Decl) and init.init is not None:
        return eval_const(init.init, env)
    if isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assign):
        return eval_const(init.expr.rhs, env)
    return None


def _step_value(step: Optional[ast.Expr], env: Dict[str, int]) -> Optional[int]:
    """Signed per-iteration increment of the induction variable."""
    if isinstance(step, ast.UnaryOp) and step.op == "++":
        return 1
    if isinstance(step, ast.UnaryOp) and step.op == "--":
        return -1
    if isinstance(step, ast.Assign):
        if step.op == "+=":
            return eval_const(step.rhs, env)
        if step.op == "-=":
            value = eval_const(step.rhs, env)
            return None if value is None else -value
        if (
            step.op == "="
            and isinstance(step.lhs, ast.Ident)
            and isinstance(step.rhs, ast.BinOp)
            and step.rhs.op in ("+", "-")
            and isinstance(step.rhs.lhs, ast.Ident)
            and step.rhs.lhs.name == step.lhs.name
        ):
            value = eval_const(step.rhs.rhs, env)
            if value is None:
                return None
            return value if step.rhs.op == "+" else -value
    return None


def eval_const(expr: Optional[ast.Expr], env: Optional[Dict[str, int]] = None) -> Optional[int]:
    """Constant-fold an integer expression; ``env`` supplies macro values."""
    env = env or {}
    if expr is None:
        return None
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Ident):
        return env.get(expr.name)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        value = eval_const(expr.operand, env)
        return None if value is None else -value
    if isinstance(expr, ast.UnaryOp) and expr.op == "+":
        return eval_const(expr.operand, env)
    if isinstance(expr, ast.Cast):
        return eval_const(expr.operand, env)
    if isinstance(expr, ast.BinOp):
        lhs = eval_const(expr.lhs, env)
        rhs = eval_const(expr.rhs, env)
        if lhs is None or rhs is None:
            return None
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "/" and rhs != 0:
            # C semantics: integer division truncates toward zero
            quotient = abs(lhs) // abs(rhs)
            return quotient if (lhs < 0) == (rhs < 0) else -quotient
        if expr.op == "%" and rhs != 0:
            # C semantics: the remainder takes the dividend's sign
            quotient = abs(lhs) // abs(rhs)
            truncated = quotient if (lhs < 0) == (rhs < 0) else -quotient
            return lhs - truncated * rhs
    return None


def collect_loops(node: ast.Node) -> List[LoopInfo]:
    """Return all ``for`` loops under ``node`` with depth/parent links.

    The returned list is in pre-order; the nest structure is available
    through ``parent``/``children``.
    """
    loops: List[LoopInfo] = []

    def visit(current: ast.Node, parent: Optional[LoopInfo], depth: int) -> None:
        if isinstance(current, ast.For):
            info = LoopInfo(node=current, depth=depth, parent=parent)
            if parent is not None:
                parent.children.append(info)
            loops.append(info)
            for child in _stmt_children(current):
                visit(child, info, depth + 1)
        else:
            for child in _stmt_children(current):
                visit(child, parent, depth)

    visit(node, None, 0)
    return loops


def _stmt_children(node: ast.Node) -> Iterator[ast.Node]:
    from repro.cir.visitor import iter_child_nodes

    return iter_child_nodes(node)


def max_loop_depth(node: ast.Node) -> int:
    """Deepest ``for`` nesting level under ``node`` (0 when loop-free)."""
    loops = collect_loops(node)
    if not loops:
        return 0
    return max(info.depth for info in loops) + 1


@dataclass
class OperationCensus:
    """Counts of operation kinds in a subtree (Milepost-style)."""

    assignments: int = 0
    binary_int_ops: int = 0
    binary_fp_ops: int = 0
    multiplies: int = 0
    divisions: int = 0
    comparisons: int = 0
    logical_ops: int = 0
    array_loads: int = 0
    array_stores: int = 0
    scalar_refs: int = 0
    calls: int = 0
    math_calls: int = 0
    branches: int = 0
    loops: int = 0
    returns: int = 0

    @property
    def memory_ops(self) -> int:
        return self.array_loads + self.array_stores

    @property
    def total_ops(self) -> int:
        return (
            self.assignments
            + self.binary_int_ops
            + self.binary_fp_ops
            + self.comparisons
            + self.logical_ops
            + self.memory_ops
            + self.calls
        )


_MATH_FUNCTIONS = frozenset(
    {"sqrt", "sqrtf", "pow", "powf", "exp", "expf", "log", "logf", "fabs",
     "fabsf", "sin", "cos", "tan", "fmax", "fmin", "ceil", "floor"}
)
_COMPARISON_OPS = frozenset({"<", ">", "<=", ">=", "==", "!="})
_LOGICAL_OPS = frozenset({"&&", "||"})


def census(node: ast.Node, fp_hint: bool = True) -> OperationCensus:
    """Count operation kinds in the subtree rooted at ``node``.

    ``fp_hint`` classifies arithmetic on array elements as floating
    point (Polybench arrays are DATA_TYPE = double); integer loop
    arithmetic (identifiers only) is classified as integer.
    """
    result = OperationCensus()
    for current in walk(node):
        if isinstance(current, ast.Assign):
            result.assignments += 1
            if isinstance(current.lhs, ast.ArrayRef):
                result.array_stores += 1
        elif isinstance(current, ast.BinOp):
            if current.op in _COMPARISON_OPS:
                result.comparisons += 1
            elif current.op in _LOGICAL_OPS:
                result.logical_ops += 1
            elif current.op == ",":
                pass
            else:
                if fp_hint and _touches_array(current):
                    result.binary_fp_ops += 1
                else:
                    result.binary_int_ops += 1
                if current.op == "*":
                    result.multiplies += 1
                elif current.op in ("/", "%"):
                    result.divisions += 1
        elif isinstance(current, ast.ArrayRef):
            result.array_loads += 1
        elif isinstance(current, ast.Ident):
            result.scalar_refs += 1
        elif isinstance(current, ast.Call):
            result.calls += 1
            if current.name in _MATH_FUNCTIONS:
                result.math_calls += 1
        elif isinstance(current, (ast.If, ast.TernaryOp)):
            result.branches += 1
        elif isinstance(current, (ast.For, ast.While, ast.DoWhile)):
            result.loops += 1
        elif isinstance(current, ast.Return):
            result.returns += 1
    # every store was also counted as a load via its ArrayRef; correct it
    result.array_loads = max(0, result.array_loads - result.array_stores)
    return result


def _touches_array(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.ArrayRef) for node in walk(expr))


def called_functions(node: ast.Node) -> List[str]:
    """Names of all directly-called functions in the subtree, in order."""
    names: List[str] = []
    for current in walk(node):
        if isinstance(current, ast.Call) and current.name:
            names.append(current.name)
    return names


def macro_environment(unit: ast.TranslationUnit) -> Dict[str, int]:
    """Extract ``#define NAME <int>`` constants from a translation unit."""
    env: Dict[str, int] = {}
    for decl in unit.decls:
        if isinstance(decl, ast.MacroDef) and decl.body:
            try:
                env[decl.name] = int(decl.body, 0)
            except ValueError:
                continue
    return env


def omp_parallel_loops(func: ast.FunctionDef) -> List[ast.Pragma]:
    """All OpenMP parallel-for pragmas inside a function body."""
    pragmas: List[ast.Pragma] = []
    for node in walk(func.body):
        if isinstance(node, ast.Pragma) and node.is_omp and "for" in node.text:
            pragmas.append(node)
    return pragmas
