"""Fuel-bounded reference interpreter: one machine, two modes.

`_Machine` is a small-step machine over explicit frames, so deep call chains
and recursion in the subject program cannot overflow the host stack. Every
frame comes from `frame_for`; a frame ends when its work list is empty, and
its value is its `ret`. Each executed statement and condition costs one unit
of fuel.

Without oracle decisions the machine runs concretely (`run_concrete`). It
records a write trace of representatives and a call trace of (caller,
callee) edges, and reports runtime faults (null dereference, bounds,
division by zero) as a distinct outcome from fuel exhaustion.

With `OracleDecisions` it runs the reified divergence semantics on the
untransformed program (`run_reified`). Bottom operands give bottom, and a
bottom base or index taints the whole field or array representative, which
then reads as bottom. A branch on bottom, a loop the oracle does not prove
terminating, a divergent recursive call and a divergent API call assign
bottom to everything they may write and are skipped. Proven loops run
concretely, so a run ends well within its fuel; a fault raises `InterpFault`.

Extern methods on the safe list are pure stubs in both modes: they return a
zero value and touch no heap state.

Arithmetic is 64-bit two's complement with wraparound. `binop64`, `unop64`
and `RELOPS` are the one int64 arithmetic core; `termination` folds
expressions with them too.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

from .aliases import RET, AliasAnalysis
from .lang import ast
from .lang.check import Symbols
from .representatives import ArrayPart, BOTTOM, Bottom, Representative, Scalar

DEFAULT_FUEL = 10**6
_REIFIED_FUEL = 10**7

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def wrap64(v: int) -> int:
    v &= _MASK
    return v - (1 << 64) if v & _SIGN else v


def div64(op: str, a: int, b: int) -> int:
    """`a / b` or `a % b` for a nonzero `b`: the quotient truncates toward
    zero, the remainder takes the sign of `a`, and both wrap to 64 bits."""
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap64(q if op == "/" else a - q * b)


_RING = {"+": operator.add, "-": operator.sub, "*": operator.mul}
RELOPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def binop64(op: str, a: int, b: int) -> int:
    """`a op b` for `+ - * / %` in 64-bit two's complement; `/` and `%`
    raise ZeroDivisionError for a zero `b`."""
    if op in _RING:
        return wrap64(_RING[op](a, b))
    if op in ("/", "%"):
        return div64(op, a, b)
    raise ValueError(op)


def unop64(op: str, a: int) -> int:
    """Negation `-` (wrapping) or logical not `!` of an int64."""
    if op == "-":
        return wrap64(-a)
    if op == "!":
        return 0 if a != 0 else 1
    raise ValueError(op)


class InterpFault(Exception):
    def __init__(self, kind: str, loc: ast.Loc):
        self.kind = kind
        self.loc = loc
        super().__init__(f"{kind} at {loc.line}:{loc.col}")


@dataclass(slots=True)
class ObjVal:
    cls: str
    fields: dict[str, object]


@dataclass(slots=True)
class ArrVal:
    elem: str
    cells: list
    part: int


Value = object  # int | None | ObjVal | ArrVal | Bottom


class Outcome(enum.Enum):
    FINISHED = "finished"
    FUEL_EXHAUSTED = "fuel_exhausted"
    FAULT = "fault"


@dataclass(slots=True)
class RunOutcome:
    kind: Outcome
    value: Value = None
    steps: int = 0
    write_trace: tuple[Representative, ...] = ()
    call_trace: tuple[tuple[str, str], ...] = ()
    fault_kind: str | None = None
    fault_loc: ast.Loc | None = None


@dataclass(slots=True)
class Store:
    """Entry-frame bindings plus a representative-level taint overlay.

    The overlay covers heap regions smeared through a tainted base or index,
    where no single concrete cell can be named.
    """

    values: dict[str, Value] = field(default_factory=dict)
    tainted: set[Representative] = field(default_factory=set)


@dataclass(slots=True)
class OracleDecisions:
    """Verdicts the reified semantics consumes: loop termination (keyed by
    While statement identity), divergent recursive methods, and divergent API
    names (externs not on the safe list)."""

    loop_terminates: dict[int, bool]
    recursion: frozenset[str]
    api: frozenset[str]

    def terminates(self, stmt: ast.While) -> bool:
        return self.loop_terminates.get(id(stmt), False)


def _zero(t: str) -> Value:
    return 0 if t == ast.INT else None


def _binop(op: str, a: int, b: int, loc: ast.Loc) -> int:
    if b == 0 and op in ("/", "%"):
        raise InterpFault("division by zero", loc)
    return binop64(op, a, b)


@dataclass(slots=True)
class _Frame:
    method: ast.Method
    env: dict[str, Value]
    work: list  # statement stack; While nodes reappear for re-evaluation
    target: str | None = None  # caller variable receiving the return value


def frame_for(m: ast.Method, values: dict[str, Value]) -> _Frame:
    """A fresh frame of `m`: each formal bound to its entry in `values` (zero
    when absent), each local to zero, and the whole body still to run."""
    env = {p.name: values.get(p.name, _zero(p.type)) for p in m.formals}
    for p in m.locals:
        env[p.name] = _zero(p.type)
    return _Frame(m, env, list(reversed(m.body)))


class _Machine:
    """Small-step machine over explicit frames. Without `decisions` it runs
    concretely; with them it runs the reified divergence semantics."""

    def __init__(
        self,
        symbols: Symbols,
        aliases: AliasAnalysis,
        fuel: int,
        decisions: OracleDecisions | None = None,
    ):
        self.sym = symbols
        self.aliases = aliases
        self.fuel = fuel
        self.dec = decisions
        self.steps = 0
        # a reified run reports no traces, so it builds none
        self.tracing = decisions is None
        self.writes: list[Representative] = []
        self.calls: list[tuple[str, str]] = []
        self.tainted: set[Representative] = set()

    def run(self, entry: _Frame) -> bool:
        """Run `entry` to its end; False when the fuel ran out first. A frame
        ends when its work list is empty, and its value is `env["ret"]`."""
        stack = [entry]
        while stack:
            frame = stack[-1]
            if not frame.work:
                if RET not in frame.env:
                    # validation puts a return on every path, so only a
                    # skipped branch can swallow them all, and then `ret`
                    # is in its write set
                    raise RuntimeError(f"method {frame.method.id!r} ended without a return value")
                stack.pop()
                if stack:
                    caller = stack[-1]
                    caller.env[frame.target] = frame.env[RET]
                    if self.tracing:
                        self.writes.append(Scalar(caller.method.id, frame.target))
                continue
            if self.fuel <= 0:
                return False
            callee = self.step(frame, frame.work.pop())
            if callee is not None:
                stack.append(callee)
        return True

    def step(self, frame: _Frame, s: ast.Stmt) -> _Frame | None:
        """Execute `s`; a call into a method with a body returns its frame.
        Statements are the concrete `ast.Stmt` classes, which have no
        subclasses, so one `type(s)` picks the branch."""
        self.steps += 1
        self.fuel -= 1
        env = frame.env
        kind = type(s)
        if kind is ast.While:
            if self._cond(frame, s):
                frame.work.append(s)
                frame.work.extend(reversed(s.body))
            return None
        if kind is ast.IfElse:
            taken = self._cond(frame, s)
            if taken is not None:
                frame.work.extend(reversed(s.then_body if taken else s.else_body))
            return None
        if kind is ast.ConstAssign:
            env[s.target] = s.value
        elif kind is ast.CopyAssign:
            env[s.target] = env[s.source]
        elif kind is ast.UnaryAssign:
            v = self._int(env, s.operand, s.loc)
            env[s.target] = v if v is BOTTOM else unop64(s.op, v)
        elif kind is ast.BinaryAssign:
            a, b = self._int(env, s.left, s.loc), self._int(env, s.right, s.loc)
            env[s.target] = BOTTOM if a is BOTTOM or b is BOTTOM else _binop(s.op, a, b, s.loc)
        elif kind is ast.FieldRead:
            obj = self._obj(env, s.obj, s.loc)
            tainted = obj is BOTTOM or (
                self.tainted and self.aliases.field_rep_for(obj.cls, s.field_name) in self.tainted
            )
            env[s.target] = BOTTOM if tainted else obj.fields[s.field_name]
        elif kind is ast.FieldWrite:
            obj = self._obj(env, s.obj, s.loc)
            if obj is BOTTOM:
                self.tainted.add(self.aliases.field_rep(frame.method.id, s.obj, s.field_name))
            else:
                obj.fields[s.field_name] = env[s.source]
                if self.tracing:
                    self.writes.append(self.aliases.field_rep_for(obj.cls, s.field_name))
            return None
        elif kind is ast.ArrayRead:
            arr, i = self._cell(env, s.array, s.index, s.loc)
            tainted = arr is BOTTOM or (self.tainted and ArrayPart(arr.part) in self.tainted)
            env[s.target] = BOTTOM if tainted else arr.cells[i]
        elif kind is ast.ArrayWrite:
            arr, i = self._cell(env, s.array, s.index, s.loc)
            if arr is BOTTOM:
                self.tainted.add(self.aliases.array_rep(frame.method.id, s.array))
            else:
                arr.cells[i] = env[s.source]
                if self.tracing:
                    self.writes.append(ArrayPart(arr.part))
            return None
        elif kind is ast.Return:
            env[RET] = env[s.value]
            if self.tracing:
                self.writes.append(Scalar(frame.method.id, RET))
            frame.work.clear()
            return None
        elif kind is ast.Call:
            return self._call(frame, s)
        else:
            # BottomAssign included: only untransformed programs run
            raise TypeError(f"cannot execute {kind.__name__}")
        if self.tracing:
            self.writes.append(Scalar(frame.method.id, s.target))
        return None

    def _cond(self, frame: _Frame, s: ast.While | ast.IfElse) -> bool | None:
        """The branch `s` takes, or None when the reified semantics skips it:
        its condition is bottom, or it is a loop that `decisions` does not
        prove. A skipped statement taints everything it may write."""
        env, c, dec = frame.env, s.cond, self.dec
        lv, rv = self._int(env, c.left, s.loc), self._int(env, c.right, s.loc)
        if dec is not None and (
            lv is BOTTOM or rv is BOTTOM or (isinstance(s, ast.While) and not dec.terminates(s))
        ):
            mid = frame.method.id
            self._taint(env, self.aliases.observable_writes(mid, s, api_set=dec.api))
            return None
        return RELOPS[c.op](lv, rv)

    def _call(self, frame: _Frame, s: ast.Call) -> _Frame | None:
        env, mid, dec = frame.env, frame.method.id, self.dec
        callee = _dispatch(self.sym, frame.method, s, env, null_faults=dec is None)
        if self.tracing:
            self.calls.append((mid, callee.id))
        if callee.extern:
            if dec is not None and callee.name in dec.api:
                for actual in s.actuals:
                    self._taint(env, self.aliases.reachable_lvalues(mid, actual))
                env[s.target] = BOTTOM
            else:
                # pure stub: zero result, no heap effects
                env[s.target] = _zero(callee.return_type)
            if self.tracing:
                self.writes.append(Scalar(mid, s.target))
            return None
        if dec is not None and callee.id in dec.recursion:
            # mirror the rewrite: heap effects and the call target only;
            # callee frames (even written formals) are unobservable here
            self._taint(env, self.aliases.heap_writes(callee.id))
            env[s.target] = BOTTOM
            return None
        new = frame_for(callee, {p.name: env[a] for p, a in zip(callee.formals, s.actuals)})
        new.target = s.target
        return new

    def _taint(self, env: dict, reps) -> None:
        for rep in reps:
            # every scalar given is the current frame's; `ret` may not be bound yet
            if isinstance(rep, Scalar):
                env[rep.name] = BOTTOM
            else:
                self.tainted.add(rep)

    def _int(self, env: dict, name: str, loc: ast.Loc) -> int | Bottom:
        v = env[name]
        if not isinstance(v, int) and v is not BOTTOM:
            raise InterpFault(f"{name!r} is not an integer value", loc)
        return v

    def _obj(self, env: dict, name: str, loc: ast.Loc) -> ObjVal | Bottom:
        v = env[name]
        if v is None:
            raise InterpFault("null dereference", loc)
        if not isinstance(v, ObjVal) and v is not BOTTOM:
            raise InterpFault(f"{name!r} is not an object", loc)
        return v

    def _cell(
        self, env: dict, arr: str, idx: str, loc: ast.Loc
    ) -> tuple[ArrVal, int] | tuple[Bottom, Bottom]:
        """The array and index of `arr[idx]`, or bottom for both when either
        is bottom."""
        v = env[arr]
        if v is BOTTOM or env[idx] is BOTTOM:
            return BOTTOM, BOTTOM
        if v is None:
            raise InterpFault("null dereference", loc)
        if not isinstance(v, ArrVal):
            raise InterpFault(f"{arr!r} is not an array", loc)
        i = self._int(env, idx, loc)
        if not 0 <= i < len(v.cells):
            raise InterpFault("array index out of bounds", loc)
        return v, i


def _dispatch(
    symbols: Symbols, caller: ast.Method, s: ast.Call, env: dict, null_faults: bool
) -> ast.Method:
    """Runtime target: virtual lookup from the receiver's runtime class,
    falling back to the receiver's static type, a class, when the receiver
    is opaque. With `null_faults` (concrete runs), a null receiver of a call
    with several targets is a fault; reified runs fall back on it like on
    bottom."""
    targets = symbols.resolve_call(caller, s)
    if len(targets) == 1:
        return targets[0]
    recv = env[s.actuals[0]]
    if isinstance(recv, ObjVal):
        found = symbols.lookup_method(recv.cls, s.callee)
        if found is not None:
            return found
    elif recv is None and null_faults:
        raise InterpFault("null receiver", s.loc)
    return symbols.lookup_method(symbols.var_types[caller.id][s.actuals[0]], s.callee)


def run_concrete(
    program: ast.Program,
    symbols: Symbols,
    aliases: AliasAnalysis,
    entry: str,
    args: list[Value],
    fuel: int = DEFAULT_FUEL,
) -> RunOutcome:
    m = symbols.methods[entry]
    if m.extern:
        raise ValueError(f"cannot run extern method {entry!r}")
    if len(args) != len(m.formals):
        raise ValueError(f"{entry!r} expects {len(m.formals)} arguments")
    machine = _Machine(symbols, aliases, fuel)
    frame = frame_for(m, {p.name: v for p, v in zip(m.formals, args)})
    try:
        if not machine.run(frame):
            return RunOutcome(Outcome.FUEL_EXHAUSTED, steps=machine.steps)
    except InterpFault as f:
        return RunOutcome(
            Outcome.FAULT,
            steps=machine.steps,
            fault_kind=f.kind,
            fault_loc=f.loc,
            write_trace=tuple(machine.writes),
            call_trace=tuple(machine.calls),
        )
    return RunOutcome(
        Outcome.FINISHED,
        value=frame.env[RET],
        steps=machine.steps,
        write_trace=tuple(machine.writes),
        call_trace=tuple(machine.calls),
    )


def run_reified(
    program: ast.Program,
    symbols: Symbols,
    aliases: AliasAnalysis,
    entry: str,
    store: Store,
    decisions: OracleDecisions,
) -> Store:
    machine = _Machine(symbols, aliases, _REIFIED_FUEL, decisions)
    machine.tainted = set(store.tainted)
    frame = frame_for(symbols.methods[entry], store.values)
    if not machine.run(frame):
        # every loop that runs was proven to terminate
        raise RuntimeError(f"reified run of {entry!r} did not end within {_REIFIED_FUEL} steps")
    return Store(values=frame.env, tainted=machine.tainted)


# ---------------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------------


def collect_taints(
    store: Store, aliases: AliasAnalysis, method_id: str
) -> frozenset[Representative]:
    """Representatives of every bottom-valued location reachable from a store;
    empty exactly when the store is divergence-free."""
    out: set[Representative] = set(store.tainted)
    seen: set[int] = set()
    work: list[Value] = []
    for name, v in store.values.items():
        if v is BOTTOM:
            out.add(Scalar(method_id, name))
        else:
            work.append(v)
    while work:
        v = work.pop()
        if isinstance(v, ObjVal):
            if id(v) in seen:
                continue
            seen.add(id(v))
            for fname, cell in v.fields.items():
                if cell is BOTTOM:
                    out.add(aliases.field_rep_for(v.cls, fname))
                else:
                    work.append(cell)
        elif isinstance(v, ArrVal):
            if id(v) in seen:
                continue
            seen.add(id(v))
            for cell in v.cells:
                if cell is BOTTOM:
                    out.add(ArrayPart(v.part))
                else:
                    work.append(cell)
    return frozenset(out)


def random_store(
    symbols: Symbols,
    aliases: AliasAnalysis,
    method_id: str,
    rng,
    array_len: int = 8,
) -> Store:
    """Divergence-free store for a method's formals: ints drawn from
    [-8, 8], heap synthesized to depth 2 with runtime classes drawn from the
    declared hierarchy."""
    m = symbols.methods[method_id]

    def make(t: str, at_depth: int, part: int | None) -> Value:
        if t == ast.INT:
            return rng.randint(-8, 8)
        if ast.is_array_type(t):
            elem = ast.elem_type(t)
            cells = [make(elem, at_depth - 1, None) for _ in range(array_len)]
            return ArrVal(elem, cells, part if part is not None else 0)
        if at_depth <= 0:
            return None
        choices = sorted(symbols.runtime_types(t))
        if not choices:
            return None
        cls = rng.choice(choices)
        obj = ObjVal(cls, {})
        for decl, fname, ftype in symbols.all_fields(cls):
            fpart = None
            if ast.is_array_type(ftype):
                fpart = aliases.partition_of_field(aliases.field_rep_for(cls, fname))
            obj.fields[fname] = make(ftype, at_depth - 1, fpart)
        return obj

    values: dict[str, Value] = {}
    for p in m.formals:
        part = None
        if ast.is_array_type(p.type):
            part = aliases.partition_of(method_id, p.name)
        values[p.name] = make(p.type, 2, part)
    return Store(values=values)
