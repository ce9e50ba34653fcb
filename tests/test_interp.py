"""Concrete and reified interpreter behavior."""

import random
from fractions import Fraction

import pytest

from cook.aliases import AliasAnalysis
from cook.generator import GenParams, generate_program
from cook.interp import (
    BOTTOM,
    RELOPS,
    ArrVal,
    InterpFault,
    ObjVal,
    Outcome,
    Store,
    collect_taints,
    random_store,
    run_concrete,
    run_reified,
    div64,
    frame_for,
    wrap64,
    _binop,
    _Machine,
)
from cook.lang import ast, load
from cook.pipeline import ProgramModel
from cook.representatives import ArrayPart, Scalar, TypeField
from cook.summaries import GuardAtom
from cook.termination import linear_of
from reference_summaries import eval_expr, holds


def test_call_chain_returns_constant(clean_chain):
    p, sym = load(clean_chain)
    al = AliasAnalysis(p, sym)
    out = run_concrete(p, sym, al, "foo", [])
    assert out.kind == Outcome.FINISHED and out.value == 1
    assert ("foo", "bar") in out.call_trace


def test_unbounded_loop_exhausts_fuel():
    src = """
method spin(): int {
  var z: int; var one: int; var x: int;
  z := 0; one := 1; x := 0;
  while z < one do { x := x + one; }
  return x;
}
"""
    p, sym = load(src)
    al = AliasAnalysis(p, sym)
    out = run_concrete(p, sym, al, "spin", [], fuel=5000)
    assert out.kind == Outcome.FUEL_EXHAUSTED and out.steps == 5000


def test_faults_are_distinct_from_fuel_exhaustion():
    src = """
method oob(a: int[]): int {
  var i: int; var x: int;
  i := 99;
  x := a[i];
  return x;
}
method dbz(x: int): int {
  var z: int; var r: int;
  z := 0;
  r := x / z;
  return r;
}
method npe(o: A): int {
  var t: int;
  t := o.f;
  return t;
}
class A { f: int; }
"""
    p, sym = load(src)
    al = AliasAnalysis(p, sym)
    out = run_concrete(p, sym, al, "oob", [ArrVal("int", [1, 2], 0)])
    assert out.kind == Outcome.FAULT and "bounds" in out.fault_kind
    out = run_concrete(p, sym, al, "dbz", [5])
    assert out.kind == Outcome.FAULT and "zero" in out.fault_kind
    out = run_concrete(p, sym, al, "npe", [None])
    assert out.kind == Outcome.FAULT and "null" in out.fault_kind
    assert out.fault_loc is not None and out.fault_loc.line > 0


def test_fuel_monotonicity_and_determinism():
    rng = random.Random(2)
    for seed in range(6):
        p = generate_program(seed, GenParams(methods=4, loop=0.3, branch=0.4, heap=0.3))
        model = ProgramModel(p)
        for mid in list(model.methods)[:2]:
            m = model.symbols.methods[mid]
            store = random_store(model.symbols, model.aliases, mid, rng)
            args = [store.values[f.name] for f in m.formals]

            def run(fuel):
                s2 = random_store(model.symbols, model.aliases, mid, random.Random(7))
                a2 = [s2.values[f.name] for f in m.formals]
                return run_concrete(p, model.symbols, model.aliases, mid, a2, fuel=fuel)

            first = run(40_000)
            again = run(40_000)
            assert first.kind == again.kind and first.value == again.value
            if first.kind == Outcome.FINISHED:
                more = run(80_000)
                assert more.kind == Outcome.FINISHED
                assert more.value == first.value and more.steps == first.steps


def test_wraparound_arithmetic():
    src = """
method wrap(x: int, y: int): int {
  var r: int;
  r := x + y;
  return r;
}
"""
    p, sym = load(src)
    al = AliasAnalysis(p, sym)
    big = 2**63 - 1
    out = run_concrete(p, sym, al, "wrap", [big, 1])
    assert out.value == wrap64(big + 1) == -(2**63)


INT64_MIN = -(2**63)
BIG = 4611686018427387905  # 2**62 + 1 has no exact double


def test_division_truncates_toward_zero():
    assert div64("/", BIG, 1) == BIG
    assert div64("/", -7, 2) == -3
    assert div64("%", -7, 2) == -1
    assert div64("/", 7, -2) == -3
    assert div64("%", 7, -2) == 1
    assert div64("/", INT64_MIN, -1) == INT64_MIN
    assert div64("%", INT64_MIN, -1) == 0


def test_every_evaluator_divides_exactly():
    src = """
method d(x: int, y: int): int {
  var q: int;
  q := x / y;
  return q;
}
"""
    p, sym = load(src)
    al = AliasAnalysis(p, sym)
    assert run_concrete(p, sym, al, "d", [BIG, 1]).value == BIG
    assert run_concrete(p, sym, al, "d", [INT64_MIN, -1]).value == INT64_MIN
    assert eval_expr(("bin", "/", ("num", BIG), ("num", 1)), {}) == BIG
    assert eval_expr(("bin", "%", ("num", -7), ("num", 2)), {}) == -1
    assert linear_of(("bin", "/", ("num", BIG), ("num", 1))) == ("const", BIG)
    assert linear_of(("bin", "%", ("num", -7), ("num", 2))) == ("const", -1)
    assert linear_of(("bin", "/", ("num", INT64_MIN), ("num", -1))) == ("const", INT64_MIN)


INT64_MAX = 2**63 - 1
EDGES = (INT64_MIN, -1, 0, 1, INT64_MAX)


def _exact(op: str, a: int, b: int) -> int:
    """Unbounded `a op b` with `/` truncating toward zero, before wrapping."""
    if op in ("/", "%"):
        q = int(Fraction(a, b))
        return q if op == "/" else a - q * b
    return {"+": a + b, "-": a - b, "*": a * b}[op]


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "%"])
def test_binary_evaluators_agree_on_int64_edges(op):
    src = f"method f(x: int, y: int): int {{ var r: int; r := x {op} y; return r; }}"
    p, sym = load(src)
    al = AliasAnalysis(p, sym)
    for a in EDGES:
        for b in EDGES:
            e = ("bin", op, ("num", a), ("num", b))
            run = run_concrete(p, sym, al, "f", [a, b])
            if b == 0 and op in ("/", "%"):
                with pytest.raises(ZeroDivisionError):
                    eval_expr(e, {})
                with pytest.raises(InterpFault, match="division by zero"):
                    _binop(op, a, b, ast.UNKNOWN_LOC)
                assert linear_of(e) is None
                assert run.fault_kind == "division by zero"
                continue
            want = wrap64(_exact(op, a, b))
            assert eval_expr(e, {}) == want, (a, b)
            assert _binop(op, a, b, ast.UNKNOWN_LOC) == want, (a, b)
            assert linear_of(e) == ("const", want), (a, b)
            assert run.value == want, (a, b)


@pytest.mark.parametrize("tag, op", [("neg", "-"), ("not", "!")])
def test_unary_evaluators_agree_on_int64_edges(tag, op):
    p, sym = load(f"method f(x: int): int {{ var r: int; r := {op} x; return r; }}")
    al = AliasAnalysis(p, sym)
    for a in EDGES:
        want = wrap64(-a) if op == "-" else int(a == 0)
        assert eval_expr((tag, ("num", a)), {}) == want, a
        assert linear_of((tag, ("num", a))) == ("const", want), a
        assert run_concrete(p, sym, al, "f", [a]).value == want, a


@pytest.mark.parametrize("op", sorted(RELOPS))
def test_relations_agree_on_int64_edges(op):
    src = f"""
method f(x: int, y: int): int {{
  var r: int;
  r := 0;
  if x {op} y then {{ r := 1; }}
  return r;
}}
"""
    p, sym = load(src)
    al = AliasAnalysis(p, sym)
    want = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }[op]
    for a in EDGES:
        for b in EDGES:
            assert holds(GuardAtom(("num", a), op, ("num", b)), {}) == want(a, b), (a, b)
            assert run_concrete(p, sym, al, "f", [a, b]).value == int(want(a, b)), (a, b)


DISPATCH_SRC = """
class A { f: int; }
class B extends A {}
method A.get(self: A): int { var t: int; t := 1; return t; }
method B.get(self: B): int { var t: int; t := 2; return t; }
method use(o: A): int {
  var x: int;
  x := get(o);
  return x;
}
"""


def test_concrete_dispatch_faults_on_null_receiver():
    p, sym = load(DISPATCH_SRC)
    al = AliasAnalysis(p, sym)
    out = run_concrete(p, sym, al, "use", [None])
    assert out.kind == Outcome.FAULT and out.fault_kind == "null receiver"
    assert run_concrete(p, sym, al, "use", [ObjVal("B", {"f": 0})]).value == 2
    assert run_concrete(p, sym, al, "use", [ObjVal("A", {"f": 0})]).value == 1


def test_reified_dispatch_falls_back_to_static_type():
    p, sym = load(DISPATCH_SRC)
    model = ProgramModel(p, sym)
    dec = model.decisions()
    for recv, want in ((None, 1), (BOTTOM, 1), (ObjVal("B", {"f": 0}), 2)):
        st = run_reified(p, sym, model.aliases, "use", Store({"o": recv}), dec)
        assert st.values["x"] == want, recv


def test_reified_taints_opaque_loop_writes(opaque_loop_caller):
    p, sym = load(opaque_loop_caller)
    model = ProgramModel(p, sym)
    st = run_reified(p, sym, model.aliases, "bar", Store(), model.decisions())
    assert st.values["y"] is BOTTOM
    assert st.values["ret"] is BOTTOM
    assert collect_taints(st, model.aliases, "bar")


def _transitively_called(model, mid):
    seen = {mid}
    work = [mid]
    while work:
        cur = work.pop()
        for callee in model.callgraph.succs.get(cur, ()):
            if callee not in seen:
                seen.add(callee)
                work.append(callee)
    return seen


def test_reified_equals_concrete_without_divergence_sources():
    compared = 0
    for seed in range(12):
        p = generate_program(
            seed, GenParams(methods=4, loop=0.3, branch=0.4, heap=0.3, call=0.2)
        )
        model = ProgramModel(p)
        dec = model.decisions()
        for mid, mm in model.methods.items():
            reach = _transitively_called(model, mid)
            if not all(
                l.verdict.terminates
                for r in reach
                for l in model.methods[r].loops
            ):
                continue
            m = model.symbols.methods[mid]
            # identical stores for both runs, via identical rng streams
            rng2 = random.Random(seed * 1000 + compared)
            s1 = random_store(model.symbols, model.aliases, mid, rng2)
            rng3 = random.Random(seed * 1000 + compared)
            s2 = random_store(model.symbols, model.aliases, mid, rng3)
            a1 = [s1.values[f.name] for f in m.formals]
            c = run_concrete(p, model.symbols, model.aliases, mid, a1)
            if c.kind != Outcome.FINISHED:
                continue
            r = run_reified(p, model.symbols, model.aliases, mid, s2, dec)
            assert not collect_taints(r, model.aliases, mid), (seed, mid)
            assert r.values["ret"] == c.value, (seed, mid)
            compared += 1
    assert compared >= 15


def test_reified_taint_flows_through_call():
    src = """
extern method api(): int;
method callee(): int {
  var r: int;
  r := api();
  return r;
}
method caller(): int {
  var x: int;
  x := callee();
  return x;
}
"""
    p, sym = load(src)
    model = ProgramModel(p, sym)
    st = run_reified(p, sym, model.aliases, "caller", Store(), model.decisions())
    assert st.values["x"] is BOTTOM and st.values["ret"] is BOTTOM


def test_reified_safe_listed_api_stays_concrete():
    src = """
extern method api(): int;
method caller(): int {
  var x: int;
  x := api();
  return x;
}
"""
    p, sym = load(src)
    model = ProgramModel(p, sym, safe_list=frozenset({"api"}))
    st = run_reified(p, sym, model.aliases, "caller", Store(), model.decisions())
    assert st.values["x"] == 0 and st.values["ret"] == 0


def test_reified_tainted_branch_taints_both_arms():
    src = """
extern method api(): int;
method m(): int {
  var c: int; var a: int; var b: int; var zero: int; var one: int;
  zero := 0; one := 1; a := 1; b := 2;
  c := api();
  if c < zero then { a := a + one; } else { b := b + one; }
  return a;
}
"""
    p, sym = load(src)
    model = ProgramModel(p, sym)
    st = run_reified(p, sym, model.aliases, "m", Store(), model.decisions())
    assert st.values["a"] is BOTTOM and st.values["b"] is BOTTOM


def test_reified_recursive_call_taints_target():
    src = """
method f(n: int): int {
  var r: int;
  r := f(n);
  return r;
}
method g(n: int): int {
  var x: int;
  x := f(n);
  return x;
}
"""
    p, sym = load(src)
    model = ProgramModel(p, sym)
    st = run_reified(p, sym, model.aliases, "g", Store({"n": 3}), model.decisions())
    assert st.values["x"] is BOTTOM


def test_reified_tainted_index_smears_partition():
    src = """
extern method api(): int;
method m(a: int[], v: int): int {
  var i: int;
  i := api();
  a[i] := v;
  return v;
}
"""
    p, sym = load(src)
    model = ProgramModel(p, sym)
    al = model.aliases
    rng = random.Random(0)
    store = random_store(sym, al, "m", rng)
    st = run_reified(p, sym, al, "m", store, model.decisions())
    assert al.array_rep("m", "a") in st.tainted
    taints = collect_taints(st, al, "m")
    assert al.array_rep("m", "a") in taints and Scalar("m", "i") in taints


def test_terminating_loops_run_concretely_in_reified_mode(counted_loop):
    p, sym = load(counted_loop)
    model = ProgramModel(p, sym)
    st = run_reified(p, sym, model.aliases, "count", Store({"n": 5}), model.decisions())
    assert st.values["j"] == 15 and st.values["ret"] == 15
    assert not collect_taints(st, model.aliases, "count")


HEAP_AND_CALLS = """
class C { f: int; a: int[]; }
extern method ext(x: int): int;
method put(o: C, v: int): int {
  var a: int[]; var i: int;
  o.f := v;
  a := o.a;
  i := 0;
  a[i] := v;
  v := ext(v);
  return v;
}
method main(o: C): int {
  var x: int; var y: int;
  x := 7;
  y := put(o, x);
  return y;
}
"""


def test_concrete_run_traces_every_write_and_call_in_order():
    p, sym = load(HEAP_AND_CALLS)
    model = ProgramModel(p, sym)
    o = ObjVal("C", {"f": 0, "a": ArrVal("int", [0, 0], 0)})
    out = run_concrete(p, sym, model.aliases, "main", [o])
    assert out.kind == Outcome.FINISHED and out.value == 0
    assert out.write_trace == (
        Scalar("main", "x"),
        TypeField("C", "f"),
        Scalar("put", "a"),
        Scalar("put", "i"),
        ArrayPart(0),
        Scalar("put", "v"),
        Scalar("put", "ret"),
        Scalar("main", "y"),
        Scalar("main", "ret"),
    )
    assert out.call_trace == (("main", "put"), ("put", "ext"))


def test_reified_run_builds_no_trace():
    p, sym = load(HEAP_AND_CALLS)
    model = ProgramModel(p, sym)
    machine = _Machine(sym, model.aliases, 10_000, model.decisions())
    o = ObjVal("C", {"f": 0, "a": ArrVal("int", [0, 0], 0)})
    frame = frame_for(sym.methods["main"], {"o": o})
    assert machine.run(frame) and frame.env["ret"] is BOTTOM  # `ext` is a divergent API
    assert o.fields["f"] == 7 and machine.steps == 9
    assert machine.writes == [] and machine.calls == []


def test_thousand_method_call_chain_runs_in_both_modes():
    depth = 1000
    step = """
method m{k}(): int {{
  var x: int; var one: int;
  one := 1;
  x := m{next}();
  x := x + one;
  return x;
}}
"""
    src = "method m{0}(): int {{ var x: int; x := 0; return x; }}".format(depth - 1)
    src += "".join(step.format(k=k, next=k + 1) for k in range(depth - 1))
    p, sym = load(src)
    model = ProgramModel(p, sym)
    out = run_concrete(p, sym, model.aliases, "m0", [])
    assert out.kind == Outcome.FINISHED and out.value == depth - 1
    st = run_reified(p, sym, model.aliases, "m0", Store(), model.decisions())
    assert st.values["ret"] == depth - 1


def test_reified_branch_on_api_result_swallowing_both_returns():
    src = """
extern method api(): int;
method m(): int {
  var c: int; var y: int; var zero: int;
  zero := 0; y := 1;
  c := api();
  if c < zero then { return zero; } else { y := c; return y; }
}
method top(): int {
  var r: int;
  r := m();
  return r;
}
"""
    p, sym = load(src)
    model = ProgramModel(p, sym)
    al = model.aliases
    callee = run_reified(p, sym, al, "m", Store(), model.decisions())
    assert callee.values["ret"] is BOTTOM and callee.values["c"] is BOTTOM
    assert collect_taints(callee, al, "m") == {Scalar("m", n) for n in ("c", "ret", "y")}
    caller = run_reified(p, sym, al, "top", Store(), model.decisions())
    assert caller.values["ret"] is BOTTOM and caller.values["r"] is BOTTOM
    assert collect_taints(caller, al, "top") == {Scalar("top", n) for n in ("r", "ret")}


def test_reified_run_out_of_fuel_is_an_error(monkeypatch):
    src = """
method spin(): int {
  var z: int; var one: int; var x: int;
  z := 0; one := 1; x := 0;
  while z < one do { x := x + one; }
  return x;
}
"""
    p, sym = load(src)
    model = ProgramModel(p, sym)
    dec = model.decisions()
    (loop,) = [s for s in ast.walk(p.methods[0].body) if isinstance(s, ast.While)]
    dec.loop_terminates[id(loop)] = True  # a wrong verdict: the loop never exits
    monkeypatch.setattr("cook.interp._REIFIED_FUEL", 1000)
    with pytest.raises(RuntimeError, match="did not end within 1000 steps"):
        run_reified(p, sym, model.aliases, "spin", Store(), dec)
