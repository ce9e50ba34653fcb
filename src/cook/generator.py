"""Seeded random program generator.

Produces well-formed programs exercising every grammar production, with
controllable densities of terminating loops, opaque loops, recursion, and
extern (API) calls. Deterministic for a fixed seed and parameter set: the
same inputs rebuild the identical AST.

Design constraints that keep generated programs useful as test subjects:

* internal calls target previously generated methods, so call graphs are
  acyclic unless recursion is requested explicitly;
* terminating loops follow the counter idiom the oracle understands (a
  dedicated stride local assigned once at method entry, a bound the loop
  never writes), so `loop` density translates into proven-terminating loops;
* array accesses outside loops use small constant indices and loop bodies
  index with the bounded induction variable, keeping fault rates low on
  synthesized stores;
* object field traffic goes through formals, which synthesized stores
  populate with non-null objects.

Determinism: the same seed and parameters give the same program text, draw
for draw. `tests/test_generator.py` pins the digests of the printed text of
many seeds and profiles, so a change that reorders or adds a random draw, or
changes the contents or order of a list drawn from, fails there.

Cost: each statement costs the same however many methods came before it.
A body keeps its variables in one sorted list per type. A body's locals are
all `int`, so the set of types it has a variable of is fixed by its formals;
`_Gen` indexes the methods a call may target by that set, builds each entry
once, and appends each new method to every entry whose types cover its
formals. `tests/test_scaling.py` counts the methods examined as call targets.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass

from .lang import ast, parse, pretty


@dataclass(frozen=True)
class GenParams:
    methods: int = 10
    classes: int = 2
    interfaces: int = 1
    max_formals: int = 3
    stmts: tuple[int, int] = (4, 10)
    max_depth: int = 2
    loop: float = 0.2  # proven-terminating loops
    opaque_loop: float = 0.0  # loops the oracle cannot discharge
    recursion: float = 0.0  # self/mutual recursive call sites
    extern: float = 0.0  # API call sites
    call: float = 0.3  # plain internal call sites
    branch: float = 0.35
    heap: float = 0.3  # field/array statement share
    virtual: float = 0.2  # class-owned methods and dispatched calls


_EXTERN_COUNT = 3


class _Gen:
    def __init__(self, rng: random.Random, params: GenParams):
        self.rng = rng
        self.p = params
        self.classes: list[ast.ClassDecl] = []
        self.interfaces: list[ast.InterfaceDecl] = []
        self.methods: list[ast.Method] = []
        # class name -> its int fields, inherited ones after its own
        self.int_fields: dict[str, list[str]] = {}
        # set of types a body has variables of -> the methods it can call
        self.targets: dict[frozenset[str], list[ast.Method]] = {}

    # -- types -----------------------------------------------------------

    def gen_types(self) -> None:
        rng = self.rng
        for i in range(self.p.interfaces):
            extends = ()
            if i > 0 and rng.random() < 0.3:
                extends = (f"I{rng.randrange(i)}",)
            self.interfaces.append(ast.InterfaceDecl(f"I{i}", extends))
        for i in range(self.p.classes):
            superclass = None
            if i > 0 and rng.random() < 0.5:
                superclass = f"C{rng.randrange(i)}"
            impls = ()
            if self.interfaces and rng.random() < 0.4:
                impls = (f"I{rng.randrange(len(self.interfaces))}",)
            fields = [ast.FieldDecl(f"f{i}_{k}", ast.INT) for k in range(rng.randint(1, 2))]
            if i > 0 and rng.random() < 0.5:
                fields.append(ast.FieldDecl(f"g{i}", f"C{rng.randrange(i)}"))
            if rng.random() < 0.3:
                fields.append(ast.FieldDecl(f"d{i}", "int[]"))
            self.classes.append(
                ast.ClassDecl(f"C{i}", superclass, impls, tuple(fields))
            )
            own = [f.name for f in fields if f.type == ast.INT]
            self.int_fields[f"C{i}"] = own + self.int_fields.get(superclass, [])

    def call_targets(self, types: frozenset[str]) -> list[ast.Method]:
        """The methods so far whose formals all have a type in `types`, in
        generation order."""
        targets = self.targets.get(types)
        if targets is None:
            targets = self.targets[types] = [m for m in self.methods if _satisfiable(m, types)]
        return targets

    # -- methods ------------------------------------------------------------

    def gen_program(self) -> ast.Program:
        self.gen_types()
        externs = tuple(
            ast.Method(f"ext{k}", None, (ast.Param("x", ast.INT),) * (k % 2), (), ast.INT, None, extern=True)
            for k in range(_EXTERN_COUNT)
        )
        for i in range(self.p.methods):
            m = self.gen_method(i)
            self.methods.append(m)
            for types, targets in self.targets.items():
                if _satisfiable(m, types):
                    targets.append(m)
        return ast.Program(tuple(self.classes), tuple(self.interfaces), externs + tuple(self.methods))

    def gen_method(self, index: int) -> ast.Method:
        rng = self.rng
        owner = None
        formals: list[ast.Param] = []
        if self.classes and rng.random() < self.p.virtual:
            owner = rng.choice(self.classes).name
            formals.append(ast.Param("self", owner))
        for k in range(rng.randint(0, self.p.max_formals)):
            t = ast.INT
            roll = rng.random()
            if roll < 0.2 and self.classes:
                t = rng.choice(self.classes).name
            elif roll < 0.35:
                t = "int[]"
            formals.append(ast.Param(f"p{k}", t))

        b = _Body(self, formals, index)
        stmts = b.gen_block(rng.randint(*self.p.stmts), self.p.max_depth)
        stmts.append(ast.Return(b.int_var()))
        return ast.Method(
            f"m{index}", owner, tuple(formals), tuple(b.locals), ast.INT, tuple(stmts)
        )


class _Body:
    """Per-method statement generator with a typed variable pool."""

    def __init__(self, gen: _Gen, formals: list[ast.Param], index: int):
        self.g = gen
        self.rng = gen.rng
        self.index = index
        self.locals: list[ast.Param] = []
        # type -> names of that type, in string order ("v10" < "v2")
        self.vars: dict[str, list[str]] = {ast.INT: []}
        for p in formals:
            insort(self.vars.setdefault(p.type, []), p.name)
        self.formal_order = [p.name for p in formals]
        # formals of a class type, by name
        self.objs = sorted((p.name, p.type) for p in formals if p.type in gen.int_fields)
        # shared unit stride, assigned exactly once at method entry
        self.one = self.local(ast.INT)
        self.prelude = [ast.ConstAssign(self.one, 1)]
        # make sure an int is always available
        self.seed_int = self.local(ast.INT)
        self.prelude.append(ast.ConstAssign(self.seed_int, self.rng.randint(-4, 4)))
        # call sites inside loop bodies multiply step counts across the call
        # graph; keeping them at top level keeps the corpus cheap to execute
        self.loop_depth = 0

    def local(self, t: str) -> str:
        name = f"v{len(self.locals)}"
        self.locals.append(ast.Param(name, t))
        insort(self.vars[t], name)
        return name

    def vars_of(self, t: str) -> list[str]:
        return self.vars.get(t, [])

    def int_var(self) -> str:
        vs = self.vars_of(ast.INT)
        return self.rng.choice(vs) if vs else self.seed_int

    # -- statements ----------------------------------------------------------

    def gen_block(self, n: int, depth: int) -> list[ast.Stmt]:
        out = list(self.prelude)
        self.prelude = []
        for _ in range(n):
            out.extend(self.gen_stmt(depth))
        return out

    def gen_group(self, n: int, depth: int) -> ast.Block:
        return tuple(s for _ in range(n) for s in self.gen_stmt(depth))

    def gen_stmt(self, depth: int) -> ast.Block:
        """One statement group: a statement, or a loop or an array access
        together with the assignments that set it up."""
        p = self.g.p
        in_loop = self.loop_depth > 0
        rng = self.rng

        structural = rng.random()
        if depth > 0:
            if structural < p.loop:
                return self.gen_counted_loop(depth - 1)
            if structural < p.loop + p.opaque_loop:
                return self.gen_opaque_loop(depth - 1)
            if structural < p.loop + p.opaque_loop + p.branch:
                return (self.gen_branch(depth - 1),)

        if not in_loop:
            roll = rng.random()
            if roll < p.recursion:
                return (self.gen_recursive_call(),)
            elif roll < p.recursion + p.extern:
                return (self.gen_extern_call(),)
            elif roll < p.recursion + p.extern + p.call:
                s = self.gen_call()
                if s is not None:
                    return (s,)

        if rng.random() < p.heap:
            group = self.gen_heap_stmt()
            if group is not None:
                return group
        return (self.gen_scalar_stmt(),)

    def gen_scalar_stmt(self) -> ast.Stmt:
        rng = self.rng
        kind = rng.randrange(4)
        target = self.fresh_or_existing_int()
        if kind == 0:
            return ast.ConstAssign(target, rng.randint(-16, 16))
        if kind == 1:
            return ast.CopyAssign(target, self.int_var())
        if kind == 2:
            return ast.UnaryAssign(target, rng.choice(ast.UNARY_OPS), self.int_var())
        op = rng.choice(ast.BINARY_OPS)
        left, right = self.int_var(), self.int_var()
        if op in ("/", "%"):
            # avoid trivially ubiquitous division faults: divide by the unit
            right = self.one
        return ast.BinaryAssign(target, left, op, right)

    def fresh_or_existing_int(self) -> str:
        if self.rng.random() < 0.4:
            return self.local(ast.INT)
        vs = [v for v in self.vars_of(ast.INT) if v != self.one]
        return self.rng.choice(vs) if vs else self.local(ast.INT)

    def gen_heap_stmt(self) -> ast.Block | None:
        rng = self.rng
        arrays = self.vars_of("int[]")
        choices = []
        if self.objs:
            choices += ["fread", "fwrite"]
        if arrays:
            choices += ["aread", "awrite"]
        if not choices:
            return None
        kind = rng.choice(choices)
        if kind in ("fread", "fwrite"):
            obj, otype = rng.choice(self.objs)
            fname = rng.choice(self.g.int_fields[otype])
            if kind == "fread":
                return (ast.FieldRead(self.fresh_or_existing_int(), obj, fname),)
            return (ast.FieldWrite(obj, fname, self.int_var()),)
        arr = rng.choice(arrays)
        idx = self.local(ast.INT)
        access = (
            ast.ArrayRead(self.fresh_or_existing_int(), arr, idx)
            if kind == "aread"
            else ast.ArrayWrite(arr, idx, self.int_var())
        )
        return ast.ConstAssign(idx, self.rng.randint(0, 4)), access

    def gen_branch(self, depth: int) -> ast.Stmt:
        cond = ast.Cond(self.int_var(), self.rng.choice(ast.REL_OPS), self.int_var())
        then_body = self.gen_group(self.rng.randint(1, 2), depth)
        else_body = ()
        if self.rng.random() < 0.6:
            else_body = self.gen_group(self.rng.randint(1, 2), depth)
        return ast.IfElse(cond, then_body, else_body)

    def gen_counted_loop(self, depth: int) -> ast.Block:
        """A loop the oracle proves terminating: fresh counter, unit stride,
        a bound the body never writes."""
        rng = self.rng
        i = self.local(ast.INT)
        bound = self.local(ast.INT)
        init = [
            ast.ConstAssign(i, 0),
            ast.ConstAssign(bound, rng.randint(0, 8)),
        ]
        forbidden = {i, bound, self.one}
        self.loop_depth += 1
        inner = [self.gen_stmt(depth) for _ in range(rng.randint(1, 2))]
        self.loop_depth -= 1
        body = [s for group in inner if not _writes_any(group, forbidden) for s in group]
        body.append(ast.BinaryAssign(i, i, "+", self.one))
        return (*init, ast.While(ast.Cond(i, "<", bound), tuple(body)))

    def gen_opaque_loop(self, depth: int) -> ast.Block:
        """A loop the oracle cannot discharge; often genuinely divergent."""
        rng = self.rng
        x = self.local(ast.INT)
        y = self.local(ast.INT)
        work = self.local(ast.INT)
        init = [
            ast.ConstAssign(x, rng.randint(0, 3)),
            ast.ConstAssign(y, rng.randint(1, 4)),
        ]
        body = [ast.BinaryAssign(work, work, "+", self.one)]
        if rng.random() < 0.5:
            # counter moves away from the bound
            body.append(ast.BinaryAssign(x, x, "-", self.one))
            cond = ast.Cond(x, "<", y)
        else:
            # guard variables never advance
            cond = ast.Cond(x, "!=", y)
        return (*init, ast.While(cond, tuple(body)))

    def gen_call(self) -> ast.Stmt | None:
        callable_ = self.g.call_targets(frozenset(self.vars))
        if not callable_:
            return None
        target = self.rng.choice(callable_)
        return self.call_to(target)

    def call_to(self, m: ast.Method) -> ast.Stmt:
        actuals = tuple(self.rng.choice(self.vars_of(p.type)) for p in m.formals)
        return ast.Call(self.fresh_or_existing_int(), m.name, actuals)

    def gen_recursive_call(self) -> ast.Stmt:
        # a self call passing the formals through, in order, is well-formed
        return ast.Call(
            self.fresh_or_existing_int(), f"m{self.index}", tuple(self.formal_order)
        )

    def gen_extern_call(self) -> ast.Stmt:
        k = self.rng.randrange(_EXTERN_COUNT)
        actuals = (self.int_var(),) * (k % 2)
        return ast.Call(self.fresh_or_existing_int(), f"ext{k}", actuals)


def _satisfiable(m: ast.Method, types: frozenset[str]) -> bool:
    """Whether a body with variables of exactly `types` can call `m`."""
    return all(p.type in types for p in m.formals)


def _writes_any(group: ast.Block, names: set[str]) -> bool:
    for sub in ast.walk(group):
        target = getattr(sub, "target", None)
        if target in names:
            return True
    return False


def generate_program(
    seed: int, params: GenParams | None = None, normalize: bool = True
) -> ast.Program:
    """Deterministic random program; `normalize` round-trips through the
    printer and parser so every statement carries a real source span."""
    params = params or GenParams()
    rng = random.Random(seed)
    program = _Gen(rng, params).gen_program()
    if normalize:
        return parse(pretty(program))
    return program


# ---------------------------------------------------------------------------
# dependency-free loop subjects
# ---------------------------------------------------------------------------


def generate_df_loop(seed: int, max_bound: int = 50) -> tuple[str, str]:
    """Source for a single method holding one dependency-free loop.

    Returns (source, method id). The loop has 1-2 cycles split on an
    induction-variable threshold, a couple of counters with random strides,
    and an i-indexed write array; the bound is a constant at most
    `max_bound`, so the interpreter can iterate it for comparison.
    """
    rng = random.Random(seed)
    n = rng.randint(0, max_bound)
    mid_split = rng.random() < 0.6
    split_at = rng.randint(0, max_bound) if mid_split else None
    counters = rng.randint(1, 2)
    write_array = rng.random() < 0.7

    lines = [f"method df(a: int[]): int {{"]
    lines.append("  var i: int;")
    lines.append("  var one: int;")
    lines.append("  var n: int;")
    decls = []
    strides_a = []
    strides_b = []
    for c in range(counters):
        lines.append(f"  var j{c}: int;")
        lines.append(f"  var da{c}: int;")
        strides_a.append(rng.randint(-3, 5) or 1)
        if mid_split:
            lines.append(f"  var db{c}: int;")
            strides_b.append(rng.randint(-3, 5) or 2)
    if mid_split:
        lines.append("  var mid: int;")
    if write_array:
        lines.append("  var cval: int;")
    lines.append("  one := 1;")
    lines.append(f"  n := {n};")
    lines.append("  i := 0;")
    for c in range(counters):
        lines.append(f"  j{c} := {rng.randint(-5, 5)};")
        lines.append(f"  da{c} := {strides_a[c]};")
        if mid_split:
            lines.append(f"  db{c} := {strides_b[c]};")
    if mid_split:
        lines.append(f"  mid := {split_at};")
    if write_array:
        lines.append(f"  cval := {rng.randint(-9, 9)};")
    lines.append("  while i < n do {")

    def updates(indent: str, strides_var: str) -> list[str]:
        out = []
        for c in range(counters):
            out.append(f"{indent}j{c} := j{c} + {strides_var}{c};")
        if write_array:
            src = rng.choice(["cval", "i"])
            out.append(f"{indent}a[i] := {src};")
        return out

    if mid_split:
        lines.append("    if i < mid then {")
        lines.extend(updates("      ", "da"))
        lines.append("    } else {")
        lines.extend(updates("      ", "db"))
        lines.append("    }")
    else:
        lines.extend(updates("    ", "da"))
    lines.append("    i := i + one;")
    lines.append("  }")
    lines.append("  return i;")
    lines.append("}")
    return "\n".join(lines) + "\n", "df"
