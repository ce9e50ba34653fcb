"""Carib abstract syntax.

The statement grammar is deliberately small: eight assignment forms, a
two-way conditional, a while loop, calls whose actuals are bare identifiers,
and a mandatory ``return id``. Conditions are always ``id rel_op id`` and a
dereference (field or array) may appear on one side of an assignment only.

``BottomAssign`` is the single extension over the surface grammar: a parallel
assignment of the divergence value to a set of l-value representatives. It is
never produced by the parser for user source; the divergence rewriter
introduces it, the parser only accepts it in ``allow_bottom`` mode so
rewritten programs can round-trip, and the alias analysis validates its targets.

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
from dataclasses import field

from ..representatives import Representative, Scalar
from ..values import value

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


@value
class Loc:
    line: int = 0
    col: int = 0
    file: str = ""  # the source file, when the parser was given one


UNKNOWN_LOC = Loc()


class DivergenceCause(enum.Enum):
    API = "api"
    LOOP = "loop"
    RECURSION = "recursion"


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@value
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


@value
class ConstAssign(Stmt):
    target: str
    value: int | None  # None encodes the null literal
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class CopyAssign(Stmt):
    target: str
    source: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class UnaryAssign(Stmt):
    target: str
    op: str
    operand: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class BinaryAssign(Stmt):
    target: str
    left: str
    op: str
    right: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class FieldRead(Stmt):
    target: str
    obj: str
    field_name: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class FieldWrite(Stmt):
    obj: str
    field_name: str
    source: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class ArrayRead(Stmt):
    target: str
    array: str
    index: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class ArrayWrite(Stmt):
    array: str
    index: str
    source: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class IfElse(Stmt):
    cond: Cond
    then_body: Block
    else_body: Block
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class While(Stmt):
    cond: Cond
    body: Block
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class Call(Stmt):
    target: str
    callee: str
    actuals: tuple[str, ...]
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class Return(Stmt):
    value: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
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


@value
class FieldDecl:
    name: str
    type: str
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class ClassDecl:
    name: str
    superclass: str | None
    interfaces: tuple[str, ...]
    fields: tuple[FieldDecl, ...]
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class InterfaceDecl:
    name: str
    extends: tuple[str, ...]
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)


@value
class Param:
    name: str
    type: str


@value
class Method:
    name: str
    owner: str | None
    formals: tuple[Param, ...]
    locals: tuple[Param, ...]
    return_type: str
    body: Block | None  # None only for extern declarations
    extern: bool = False
    loc: Loc = field(default=UNKNOWN_LOC, compare=False)
    # `Owner.name` for a method of a class, the bare name otherwise
    id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", f"{self.owner}.{self.name}" if self.owner else self.name)


@value
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


# the statement classes have no subclasses, so `type(s)` names the form
_TARGETED = frozenset(
    {ConstAssign, CopyAssign, UnaryAssign, BinaryAssign, FieldRead, ArrayRead, Call}
)


def scalar_writes(s: Stmt | None, method_id: str) -> tuple[str, ...]:
    """Names of the scalars of method `method_id`'s frame that `s` writes:
    the target of an assignment, read or call, ``ret`` for a return, and
    the own-method scalar targets of a bottom assignment. A branch writes
    none; the statements nested in it are asked one by one."""
    kind = type(s)
    if kind in _TARGETED:
        return (s.target,)
    if kind is Return:
        return ("ret",)
    if kind is BottomAssign:
        return tuple(
            r.name for r in s.targets if isinstance(r, Scalar) and r.method == method_id
        )
    return ()


def scalar_reads(s: Stmt | None) -> tuple[str, ...]:
    """Names of the scalars that `s` reads, in operand order: the operands
    of an assignment, the base and index of a field or array access, the
    stored value of a write, a call's actuals and a return's value. A branch
    reads the two names of its condition; the statements nested in it are
    asked one by one."""
    kind = type(s)
    if kind is BinaryAssign:
        return (s.left, s.right)
    if kind is CopyAssign:
        return (s.source,)
    if kind is UnaryAssign:
        return (s.operand,)
    if kind is IfElse or kind is While:
        return (s.cond.left, s.cond.right)
    if kind is Return:
        return (s.value,)
    if kind is FieldRead:
        return (s.obj,)
    if kind is FieldWrite:
        return (s.obj, s.source)
    if kind is ArrayRead:
        return (s.array, s.index)
    if kind is ArrayWrite:
        return (s.array, s.index, s.source)
    if kind is Call:
        return s.actuals
    return ()
