"""Carib abstract syntax.

The statement grammar is deliberately small: eight assignment forms, a
two-way conditional, a while loop, calls whose actuals are bare identifiers,
and a mandatory ``return id``. Conditions are always ``id rel_op id`` and a
dereference (field or array) may appear on one side of an assignment only.

``BottomAssign`` is the single extension over the surface grammar: a parallel
assignment of the divergence value to a set of l-value representatives. It is
never produced by the parser for user source; the divergence rewriter
introduces it, and the parser only accepts it in ``allow_bottom`` mode so
rewritten programs can round-trip.

A statement block is a plain tuple of statements (``Block``): a method body,
either branch of a conditional, and a loop body. An empty block is ``()``;
only an extern method has no body (``None``). Because blocks are flat,
equality, hashing and every traversal cost stack depth in proportion to
nesting, never to the length of a block.

Source locations never participate in structural equality, so
``parse(pretty(p)) == p`` compares shape, not layout, and holds for methods
of any length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..representatives import Representative

# ---------------------------------------------------------------------------
# types and locations
# ---------------------------------------------------------------------------

INT = "int"
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

UNARY_OPS = ("-", "!")
BINARY_OPS = ("+", "-", "*", "/", "%")
REL_OPS = ("<", "<=", ">", ">=", "==", "!=")


def is_array_type(t: str) -> bool:
    return t.endswith("[]")


def elem_type(t: str) -> str:
    return t[:-2]


@dataclass(frozen=True, slots=True)
class Loc:
    line: int = 0
    col: int = 0


UNKNOWN_LOC = Loc()


class DivergenceCause(enum.Enum):
    API = "api"
    LOOP = "loop"
    RECURSION = "recursion"


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Cond:
    left: str
    op: str
    right: str

    def render(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class Stmt:
    """Marker base; concrete statements are the dataclasses below."""

    __slots__ = ()


Block = tuple[Stmt, ...]


@dataclass(frozen=True, slots=True)
class ConstAssign(Stmt):
    target: str
    value: int | None  # None encodes the null literal
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class CopyAssign(Stmt):
    target: str
    source: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class UnaryAssign(Stmt):
    target: str
    op: str
    operand: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class BinaryAssign(Stmt):
    target: str
    left: str
    op: str
    right: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class FieldRead(Stmt):
    target: str
    obj: str
    field_name: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class FieldWrite(Stmt):
    obj: str
    field_name: str
    source: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class ArrayRead(Stmt):
    target: str
    array: str
    index: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class ArrayWrite(Stmt):
    array: str
    index: str
    source: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class IfElse(Stmt):
    cond: Cond
    then_body: Block
    else_body: Block
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class While(Stmt):
    cond: Cond
    body: Block
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class Call(Stmt):
    target: str
    callee: str
    actuals: tuple[str, ...]
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class Return(Stmt):
    value: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class BottomAssign(Stmt):
    """Parallel assignment of divergence to a set of representatives."""

    targets: tuple[Representative, ...]
    cause: DivergenceCause
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


ASSIGN_FORMS = (
    ConstAssign,
    CopyAssign,
    UnaryAssign,
    BinaryAssign,
    FieldRead,
    FieldWrite,
    ArrayRead,
    ArrayWrite,
)


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FieldDecl:
    name: str
    type: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class ClassDecl:
    name: str
    superclass: str | None
    interfaces: tuple[str, ...]
    fields: tuple[FieldDecl, ...]
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class InterfaceDecl:
    name: str
    extends: tuple[str, ...]
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@dataclass(frozen=True, slots=True)
class Param:
    name: str
    type: str


@dataclass(frozen=True, slots=True)
class Method:
    name: str
    owner: str | None
    formals: tuple[Param, ...]
    locals: tuple[Param, ...]
    return_type: str
    body: Block | None  # None only for extern declarations
    extern: bool = False
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)

    @property
    def id(self) -> str:
        return f"{self.owner}.{self.name}" if self.owner else self.name


@dataclass(frozen=True, slots=True)
class Program:
    classes: tuple[ClassDecl, ...]
    interfaces: tuple[InterfaceDecl, ...]
    methods: tuple[Method, ...]


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------


def walk(body: Stmt | Block | None):
    """Yield every statement of a statement or block, nested ones included,
    in source order."""
    stack = [body]
    while stack:
        s = stack.pop()
        if s is None:
            continue
        if isinstance(s, tuple):
            stack.extend(reversed(s))
            continue
        yield s
        if isinstance(s, IfElse):
            stack.append(s.else_body)
            stack.append(s.then_body)
        elif isinstance(s, While):
            stack.append(s.body)


def instruction_count(body: Block | None) -> int:
    """Statement count used as the size unit in reports (branches count once)."""
    return sum(1 for _ in walk(body))
