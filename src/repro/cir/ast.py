"""AST node definitions for the C subset.

Nodes are plain dataclasses.  Child-node fields are discovered
generically (see :mod:`repro.cir.visitor`), so transformations written
for the LARA weaver do not need per-node boilerplate.

Design notes
------------
* Types are flattened into a :class:`Type` value object (base name,
  pointer level, qualifiers) — enough for Polybench, which only uses
  scalars, arrays and pointers of scalar types.
* ``#pragma`` lines are first-class statements/declarations
  (:class:`Pragma`); the Multiversioning strategy of the paper works by
  inserting and rewriting them.
* ``#include`` and ``#define`` are preserved verbatim
  (:class:`Include`, :class:`MacroDef`) so a weaved translation unit
  prints back to a complete compilable-looking source file.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Dict, List, Optional, Tuple

from repro.compat import slotted_dataclass


@slotted_dataclass
class Node:
    """Base class for every AST node."""

    def clone(self) -> "Node":
        """Return a deep copy of this node (used by kernel cloning).

        Every node and node list below it is copied; :class:`Type` nodes
        and scalar fields are shared, since no pass changes them in place.
        """
        return _copy_tree(self)


#: Field names of each node class, in ``__init__`` order.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _copy_tree(value):
    if isinstance(value, list):
        return [_copy_tree(item) for item in value]
    if not isinstance(value, Node) or isinstance(value, Type):
        return value
    cls = type(value)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return cls(*[_copy_tree(getattr(value, name)) for name in names])


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@slotted_dataclass
class Type(Node):
    """A (possibly qualified, possibly pointer) scalar type.

    ``name`` is the space-joined base type ("unsigned long", "double",
    a typedef name, ...), ``pointers`` the number of ``*`` levels and
    ``qualifiers`` an ordered tuple such as ``("static", "const")``.

    No pass changes a Type once it is built (derive a new one with
    ``dataclasses.replace``), so :meth:`Node.clone` shares it.
    """

    name: str
    pointers: int = 0
    qualifiers: Tuple[str, ...] = ()

    def __str__(self) -> str:
        prefix = " ".join(self.qualifiers)
        stars = "*" * self.pointers
        parts = [part for part in (prefix, self.name) if part]
        return " ".join(parts) + (" " + stars if stars else "")

    @property
    def is_floating(self) -> bool:
        """True for ``float``/``double`` (including ``long double``)."""
        return self.name.split()[-1] in {"float", "double"}

    @property
    def is_void(self) -> bool:
        return self.name == "void" and self.pointers == 0


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@slotted_dataclass
class Expr(Node):
    """Base class for expressions."""


@slotted_dataclass
class IntLit(Expr):
    text: str

    @property
    def value(self) -> int:
        text = self.text.rstrip("uUlL")
        return int(text, 0)


@slotted_dataclass
class FloatLit(Expr):
    text: str

    @property
    def value(self) -> float:
        return float(self.text.rstrip("fFlL"))


@slotted_dataclass
class StringLit(Expr):
    text: str  # includes the surrounding quotes


@slotted_dataclass
class CharLit(Expr):
    text: str  # includes the surrounding quotes


@slotted_dataclass
class Ident(Expr):
    name: str


@slotted_dataclass
class ArrayRef(Expr):
    """``base[i0][i1]...`` — indices kept as a list for nest analysis."""

    base: Expr
    indices: List[Expr]


@slotted_dataclass
class Call(Expr):
    func: Expr
    args: List[Expr]

    @property
    def name(self) -> Optional[str]:
        """Callee name when the callee is a plain identifier."""
        if isinstance(self.func, Ident):
            return self.func.name
        return None


@slotted_dataclass
class Member(Expr):
    """``base.field`` or ``base->field``."""

    base: Expr
    field_name: str
    arrow: bool = False


@slotted_dataclass
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@slotted_dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr
    postfix: bool = False  # for i++ / i--


@slotted_dataclass
class Assign(Expr):
    """Assignment expression: ``lhs op rhs`` where op is ``=``, ``+=``, ..."""

    op: str
    lhs: Expr
    rhs: Expr


@slotted_dataclass
class TernaryOp(Expr):
    cond: Expr
    then: Expr
    other: Expr


@slotted_dataclass
class Cast(Expr):
    type: Type
    operand: Expr


@slotted_dataclass
class SizeOf(Expr):
    """``sizeof(type)`` or ``sizeof expr``."""

    type: Optional[Type] = None
    operand: Optional[Expr] = None


@slotted_dataclass
class CompoundLiteral(Expr):
    """Brace initializer ``{a, b, {c}}`` (used in declarations)."""

    items: List[Expr]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@slotted_dataclass
class Stmt(Node):
    """Base class for statements."""


@slotted_dataclass
class ExprStmt(Stmt):
    expr: Expr


@slotted_dataclass
class Decl(Stmt):
    """A variable declaration, also usable at file scope.

    ``array_dims`` holds one expression per ``[dim]`` suffix; an empty
    list means a plain scalar/pointer declaration.
    """

    type: Type
    name: str
    array_dims: List[Expr] = field(default_factory=list)
    init: Optional[Expr] = None

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)


@slotted_dataclass
class DeclGroup(Stmt):
    """A comma declaration ``int i, j, k;`` kept as one statement.

    Unlike a :class:`Block`, a DeclGroup introduces no scope — it prints
    as a single source line and counts as one logical line of code.
    """

    decls: List[Decl] = field(default_factory=list)


@slotted_dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@slotted_dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None


@slotted_dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@slotted_dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@slotted_dataclass
class For(Stmt):
    """C ``for`` loop; ``init`` may be a declaration or an expression."""

    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@slotted_dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@slotted_dataclass
class Break(Stmt):
    pass


@slotted_dataclass
class Continue(Stmt):
    pass


@slotted_dataclass
class Pragma(Stmt):
    """A ``#pragma`` line; ``text`` excludes the ``#pragma `` prefix."""

    text: str

    @property
    def is_omp(self) -> bool:
        return self.text.startswith("omp")

    @property
    def is_gcc_optimize(self) -> bool:
        return self.text.startswith("GCC optimize")


@slotted_dataclass
class EmptyStmt(Stmt):
    """A bare ``;``."""


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


@slotted_dataclass
class Param(Node):
    type: Type
    name: str
    array_dims: List[Expr] = field(default_factory=list)


@slotted_dataclass
class FunctionDef(Node):
    return_type: Type
    name: str
    params: List[Param]
    body: Block
    storage: Tuple[str, ...] = ()  # e.g. ("static",)
    pragmas: List[Pragma] = field(default_factory=list)  # attached before the def

    @property
    def signature(self) -> str:
        params = ", ".join(
            f"{param.type}{param.name}" + "".join("[]" for _ in param.array_dims)
            for param in self.params
        )
        return f"{self.return_type} {self.name}({params})"


@slotted_dataclass
class FunctionDecl(Node):
    """A function prototype (declaration without a body)."""

    return_type: Type
    name: str
    params: List[Param]
    storage: Tuple[str, ...] = ()


@slotted_dataclass
class Include(Node):
    """``#include <...>`` or ``#include "..."`` kept verbatim."""

    target: str
    system: bool = True

    @property
    def text(self) -> str:
        if self.system:
            return f"#include <{self.target}>"
        return f'#include "{self.target}"'


@slotted_dataclass
class MacroDef(Node):
    """``#define NAME body`` kept verbatim (no expansion)."""

    name: str
    body: str = ""

    @property
    def text(self) -> str:
        if self.body:
            return f"#define {self.name} {self.body}"
        return f"#define {self.name}"


@slotted_dataclass
class Typedef(Node):
    type: Type
    name: str


@slotted_dataclass
class RawDirective(Node):
    """Any other preprocessor line (``#ifdef``, ``#endif``, ...)."""

    text: str


@slotted_dataclass
class TranslationUnit(Node):
    """A whole source file: ordered list of top-level declarations."""

    decls: List[Node] = field(default_factory=list)
    name: str = "<anonymous>"

    def functions(self) -> List[FunctionDef]:
        """All function definitions, in file order."""
        return [decl for decl in self.decls if isinstance(decl, FunctionDef)]

    def function(self, name: str) -> FunctionDef:
        """Look up one function definition by name.

        Raises ``KeyError`` when no definition with that name exists.
        """
        for decl in self.decls:
            if isinstance(decl, FunctionDef) and decl.name == name:
                return decl
        raise KeyError(f"no function named {name!r} in {self.name}")

    def has_function(self, name: str) -> bool:
        return any(
            isinstance(decl, FunctionDef) and decl.name == name for decl in self.decls
        )
