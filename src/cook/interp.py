"""Fuel-bounded reference interpreter in two modes.

Concrete mode is a plain small-step machine over explicit frames (so deep
recursion in the subject program cannot overflow the host stack). It counts
every executed statement and condition against a fuel budget, records a write
trace of representatives and a call trace of (caller, callee) edges, and
reports runtime faults (null dereference, bounds, division by zero) as a
distinct outcome from fuel exhaustion.

Reified mode executes the divergence semantics directly on the untransformed
program: loops the oracle cannot prove terminating and calls to divergent
recursive or API methods assign bottom to everything they may write; all
other constructs propagate bottom. Loops proven terminating are iterated
concretely, so a run always finishes. Extern methods on the safe list are
modeled as pure stubs in both modes: they return a zero value and touch no
heap state.

Arithmetic is 64-bit two's complement with wraparound. `binop64`, `unop64`
and `RELOPS` are the one int64 arithmetic core; `summaries` and `termination`
evaluate and fold expressions with them too.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

from .aliases import RET, AliasAnalysis
from .lang import ast
from .lang.check import Symbols
from .representatives import ArrayPart, BOTTOM, Representative, Scalar

DEFAULT_FUEL = 10**6
_REIFIED_ITER_CAP = 10**7

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


# ---------------------------------------------------------------------------
# concrete machine
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Frame:
    method: ast.Method
    env: dict[str, Value]
    work: list  # statement stack; While nodes reappear for re-evaluation
    target: str | None  # caller variable receiving the return value


class _Machine:
    def __init__(self, symbols: Symbols, aliases: AliasAnalysis, fuel: int):
        self.sym = symbols
        self.aliases = aliases
        self.fuel = fuel
        self.steps = 0
        self.writes: list[Representative] = []
        self.calls: list[tuple[str, str]] = []

    def tick(self) -> None:
        self.steps += 1
        self.fuel -= 1

    def frame_for(self, m: ast.Method, args: list[Value]) -> _Frame:
        env: dict[str, Value] = {}
        for p, v in zip(m.formals, args):
            env[p.name] = v
        for p in m.locals:
            env[p.name] = _zero(p.type)
        return _Frame(m, env, list(reversed(m.body)), None)

    def run(self, entry: ast.Method, args: list[Value]) -> RunOutcome:
        stack = [self.frame_for(entry, list(args))]
        ret_value: Value = None
        try:
            while stack:
                frame = stack[-1]
                if not frame.work:
                    raise RuntimeError(
                        f"method {frame.method.id!r} fell off its end"
                    )  # validation guarantees a return on every path
                if self.fuel <= 0:
                    return RunOutcome(Outcome.FUEL_EXHAUSTED, steps=self.steps)
                s = frame.work.pop()
                new_frame = self.step(frame, s)
                if new_frame is not None:
                    stack.append(new_frame)
                elif isinstance(s, ast.Return):
                    ret_value = frame.env[RET]
                    stack.pop()
                    if stack:
                        caller = stack[-1]
                        caller.env[frame.target] = ret_value
                        self.writes.append(self.aliases.scalar(caller.method.id, frame.target))
        except InterpFault as f:
            return RunOutcome(
                Outcome.FAULT,
                steps=self.steps,
                fault_kind=f.kind,
                fault_loc=f.loc,
                write_trace=tuple(self.writes),
                call_trace=tuple(self.calls),
            )
        return RunOutcome(
            Outcome.FINISHED,
            value=ret_value,
            steps=self.steps,
            write_trace=tuple(self.writes),
            call_trace=tuple(self.calls),
        )

    def step(self, frame: _Frame, s: ast.Stmt) -> _Frame | None:
        env = frame.env
        mid = frame.method.id
        if isinstance(s, ast.While):
            self.tick()
            if self._cond(env, s.cond, s.loc):
                frame.work.append(s)
                frame.work.extend(reversed(s.body))
            return None
        if isinstance(s, ast.IfElse):
            self.tick()
            branch = s.then_body if self._cond(env, s.cond, s.loc) else s.else_body
            frame.work.extend(reversed(branch))
            return None
        self.tick()
        if isinstance(s, ast.ConstAssign):
            env[s.target] = s.value
        elif isinstance(s, ast.CopyAssign):
            env[s.target] = env[s.source]
        elif isinstance(s, ast.UnaryAssign):
            env[s.target] = unop64(s.op, self._int(env, s.operand, s.loc))
        elif isinstance(s, ast.BinaryAssign):
            env[s.target] = _binop(
                s.op, self._int(env, s.left, s.loc), self._int(env, s.right, s.loc), s.loc
            )
        elif isinstance(s, ast.FieldRead):
            env[s.target] = self._obj(env, s.obj, s.loc).fields[s.field_name]
        elif isinstance(s, ast.FieldWrite):
            obj = self._obj(env, s.obj, s.loc)
            obj.fields[s.field_name] = env[s.source]
            self.writes.append(self.aliases.field_rep_for(obj.cls, s.field_name))
            return None
        elif isinstance(s, ast.ArrayRead):
            arr, i = self._cell(env, s.array, s.index, s.loc)
            env[s.target] = arr.cells[i]
        elif isinstance(s, ast.ArrayWrite):
            arr, i = self._cell(env, s.array, s.index, s.loc)
            arr.cells[i] = env[s.source]
            self.writes.append(ArrayPart(arr.part))
            return None
        elif isinstance(s, ast.Return):
            env[RET] = env[s.value]
            self.writes.append(self.aliases.scalar(mid, RET))
            frame.work.clear()
            return None
        elif isinstance(s, ast.Call):
            return self._call(frame, s)
        elif isinstance(s, ast.BottomAssign):
            raise TypeError("concrete mode cannot execute rewritten programs")
        else:
            raise TypeError(f"cannot execute {type(s).__name__}")
        self.writes.append(self.aliases.scalar(mid, s.target))
        return None

    def _call(self, frame: _Frame, s: ast.Call) -> _Frame | None:
        callee = _dispatch(self.sym, frame.method, s, frame.env, null_faults=True)
        if callee.extern:
            # pure stub: zero result, no heap effects
            frame.env[s.target] = _zero(callee.return_type)
            self.writes.append(self.aliases.scalar(frame.method.id, s.target))
            self.calls.append((frame.method.id, callee.id))
            return None
        self.calls.append((frame.method.id, callee.id))
        new = self.frame_for(callee, [frame.env[a] for a in s.actuals])
        new.target = s.target
        return new

    def _cond(self, env: dict, c: ast.Cond, loc: ast.Loc) -> bool:
        return RELOPS[c.op](self._int(env, c.left, loc), self._int(env, c.right, loc))

    def _int(self, env: dict, name: str, loc: ast.Loc) -> int:
        v = env[name]
        if not isinstance(v, int):
            raise InterpFault(f"{name!r} is not an integer value", loc)
        return v

    def _obj(self, env: dict, name: str, loc: ast.Loc) -> ObjVal:
        v = env[name]
        if v is None:
            raise InterpFault("null dereference", loc)
        if not isinstance(v, ObjVal):
            raise InterpFault(f"{name!r} is not an object", loc)
        return v

    def _cell(self, env: dict, arr: str, idx: str, loc: ast.Loc) -> tuple[ArrVal, int]:
        v = env[arr]
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
    falling back to the receiver's static type and then to static resolution
    when the receiver is opaque. With `null_faults` (concrete runs), a null
    receiver of a call with several targets is a fault; reified runs fall
    back on it like on bottom."""
    targets = symbols.resolve_call(caller, s)
    if len(targets) == 1:
        return targets[0]
    recv = env[s.actuals[0]]
    if isinstance(recv, ObjVal):
        found = symbols.lookup_method(recv.cls, s.callee)
        if found is not None:
            return found
    if recv is None and null_faults:
        raise InterpFault("null receiver", s.loc)
    static_type = symbols.var_types[caller.id][s.actuals[0]]
    if static_type in symbols.classes:
        found = symbols.lookup_method(static_type, s.callee)
        if found is not None:
            return found
    return targets[0]


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
    return _Machine(symbols, aliases, fuel).run(m, args)


# ---------------------------------------------------------------------------
# reified divergence semantics
# ---------------------------------------------------------------------------


class _Reified:
    def __init__(
        self,
        symbols: Symbols,
        aliases: AliasAnalysis,
        decisions: OracleDecisions,
    ):
        self.sym = symbols
        self.aliases = aliases
        self.dec = decisions
        self.tainted: set[Representative] = set()

    # -- taint helpers ---------------------------------------------------------

    def taint_reps(self, method_id: str, env: dict, reps) -> None:
        for rep in reps:
            if isinstance(rep, Scalar):
                # `ret` may not be bound yet; other frames' scalars are
                # unobservable from this one and die with their frame
                if rep.method == method_id:
                    env[rep.name] = BOTTOM
            else:
                self.tainted.add(rep)

    def loop_write_targets(self, method_id: str, s: ast.Stmt) -> frozenset[Representative]:
        return self.aliases.observable_writes(method_id, s, api_set=self.dec.api)

    # -- execution ------------------------------------------------------------

    def exec_method(self, m: ast.Method, args: list[Value]) -> Value:
        env: dict[str, Value] = {}
        for p, v in zip(m.formals, args):
            env[p.name] = v
        for p in m.locals:
            env[p.name] = _zero(p.type)
        returned = self.exec_block(m, env, m.body)
        if not returned and RET not in env:
            # only reachable when a tainted branch swallowed every return,
            # in which case `ret` belongs to its write set
            raise RuntimeError(f"method {m.id!r} finished without a return value")
        return env[RET]

    def exec_block(self, m: ast.Method, env: dict, block: ast.Block) -> bool:
        """Run a block; True means a return was executed."""
        for s in block:
            if isinstance(s, ast.While):
                if self.exec_while(m, env, s):
                    return True
            elif isinstance(s, ast.IfElse):
                if self.exec_if(m, env, s):
                    return True
            elif isinstance(s, ast.Return):
                env[RET] = env[s.value]
                return True
            elif isinstance(s, ast.Call):
                self.exec_call(m, env, s)
            else:
                self.exec_assign(m, env, s)
        return False

    def exec_if(self, m: ast.Method, env: dict, s: ast.IfElse) -> bool:
        lv, rv = env[s.cond.left], env[s.cond.right]
        if lv is BOTTOM or rv is BOTTOM:
            self.taint_reps(m.id, env, self.loop_write_targets(m.id, s))
            return False
        branch = s.then_body if RELOPS[s.cond.op](lv, rv) else s.else_body
        return self.exec_block(m, env, branch)

    def exec_while(self, m: ast.Method, env: dict, s: ast.While) -> bool:
        iterations = 0
        while True:
            lv, rv = env[s.cond.left], env[s.cond.right]
            if not self.dec.terminates(s) or lv is BOTTOM or rv is BOTTOM:
                self.taint_reps(m.id, env, self.loop_write_targets(m.id, s))
                return False
            if not RELOPS[s.cond.op](lv, rv):
                return False
            if self.exec_block(m, env, s.body):
                return True
            iterations += 1
            if iterations > _REIFIED_ITER_CAP:
                raise RuntimeError(
                    f"loop at {s.loc.line}:{s.loc.col} judged terminating did not exit"
                )

    def exec_call(self, m: ast.Method, env: dict, s: ast.Call) -> None:
        callee = _dispatch(self.sym, m, s, env, null_faults=False)
        if callee.extern:
            if callee.name in self.dec.api:
                for actual in s.actuals:
                    self.taint_reps(m.id, env, self.aliases.reachable_lvalues(m.id, actual))
                env[s.target] = BOTTOM
            else:
                env[s.target] = _zero(callee.return_type)
            return
        if callee.id in self.dec.recursion:
            # mirror the rewrite: heap effects and the call target only;
            # callee frames (even written formals) are unobservable here
            self.taint_reps(m.id, env, self.aliases.heap_writes(callee.id))
            env[s.target] = BOTTOM
            return
        result = self.exec_method(callee, [env[a] for a in s.actuals])
        env[s.target] = result

    def exec_assign(self, m: ast.Method, env: dict, s: ast.Stmt) -> None:
        mid = m.id
        if isinstance(s, ast.ConstAssign):
            env[s.target] = s.value
        elif isinstance(s, ast.CopyAssign):
            env[s.target] = env[s.source]
        elif isinstance(s, ast.UnaryAssign):
            v = env[s.operand]
            env[s.target] = BOTTOM if v is BOTTOM else unop64(s.op, v)
        elif isinstance(s, ast.BinaryAssign):
            a, b = env[s.left], env[s.right]
            env[s.target] = BOTTOM if a is BOTTOM or b is BOTTOM else _binop(s.op, a, b, s.loc)
        elif isinstance(s, ast.FieldRead):
            obj = env[s.obj]
            if obj is BOTTOM:
                env[s.target] = BOTTOM
                return
            if obj is None:
                raise InterpFault("null dereference", s.loc)
            rep = self.aliases.field_rep_for(obj.cls, s.field_name)
            cell = obj.fields[s.field_name]
            env[s.target] = BOTTOM if rep in self.tainted else cell
        elif isinstance(s, ast.FieldWrite):
            obj = env[s.obj]
            if obj is BOTTOM:
                self.tainted.add(self.aliases.field_rep(mid, s.obj, s.field_name))
                return
            if obj is None:
                raise InterpFault("null dereference", s.loc)
            obj.fields[s.field_name] = env[s.source]
        elif isinstance(s, ast.ArrayRead):
            arr, i = env[s.array], env[s.index]
            if arr is BOTTOM or i is BOTTOM:
                env[s.target] = BOTTOM
                return
            if arr is None:
                raise InterpFault("null dereference", s.loc)
            if not 0 <= i < len(arr.cells):
                raise InterpFault("array index out of bounds", s.loc)
            env[s.target] = BOTTOM if ArrayPart(arr.part) in self.tainted else arr.cells[i]
        elif isinstance(s, ast.ArrayWrite):
            arr, i = env[s.array], env[s.index]
            if arr is BOTTOM or i is BOTTOM:
                self.tainted.add(self.aliases.array_rep(mid, s.array))
                return
            if arr is None:
                raise InterpFault("null dereference", s.loc)
            if not 0 <= i < len(arr.cells):
                raise InterpFault("array index out of bounds", s.loc)
            arr.cells[i] = env[s.source]
        elif isinstance(s, ast.BottomAssign):
            raise TypeError("reified mode runs untransformed programs")
        else:
            raise TypeError(f"cannot execute {type(s).__name__}")


def run_reified(
    program: ast.Program,
    symbols: Symbols,
    aliases: AliasAnalysis,
    entry: str,
    store: Store,
    decisions: OracleDecisions,
) -> Store:
    m = symbols.methods[entry]
    machine = _Reified(symbols, aliases, decisions)
    machine.tainted = set(store.tainted)
    env: dict[str, Value] = {}
    for p in m.formals:
        env[p.name] = store.values.get(p.name, _zero(p.type))
    for p in m.locals:
        env[p.name] = _zero(p.type)
    returned = machine.exec_block(m, env, m.body)
    if not returned and RET not in env:
        raise RuntimeError(f"method {entry!r} finished without a return value")
    return Store(values=env, tainted=machine.tainted)


# ---------------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------------


def store_divergence_free(store: Store) -> bool:
    if store.tainted:
        return False
    seen: set[int] = set()
    work = list(store.values.values())
    while work:
        v = work.pop()
        if v is BOTTOM:
            return False
        if isinstance(v, ObjVal):
            if id(v) in seen:
                continue
            seen.add(id(v))
            work.extend(v.fields.values())
        elif isinstance(v, ArrVal):
            if id(v) in seen:
                continue
            seen.add(id(v))
            work.extend(v.cells)
    return True


def collect_taints(
    store: Store, aliases: AliasAnalysis, method_id: str
) -> frozenset[Representative]:
    """Representatives of every bottom-valued location reachable from a store."""
    out: set[Representative] = set(store.tainted)
    seen: set[int] = set()
    work: list[tuple[Value, Representative | None]] = []
    for name, v in store.values.items():
        rep: Representative = Scalar(method_id, name)
        if v is BOTTOM:
            out.add(rep)
        else:
            work.append((v, None))
    while work:
        v, _ = work.pop()
        if isinstance(v, ObjVal):
            if id(v) in seen:
                continue
            seen.add(id(v))
            for fname, cell in v.fields.items():
                if cell is BOTTOM:
                    out.add(aliases.field_rep_for(v.cls, fname))
                else:
                    work.append((cell, None))
        elif isinstance(v, ArrVal):
            if id(v) in seen:
                continue
            seen.add(id(v))
            for cell in v.cells:
                if cell is BOTTOM:
                    out.add(ArrayPart(v.part))
                else:
                    work.append((cell, None))
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
