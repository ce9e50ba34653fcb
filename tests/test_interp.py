"""Concrete and reified interpreter behavior."""

import random

from cook.aliases import AliasAnalysis
from cook.generator import GenParams, generate_program
from cook.interp import (
    BOTTOM,
    ArrVal,
    Outcome,
    Store,
    collect_taints,
    random_store,
    run_concrete,
    run_reified,
    div64,
    store_divergence_free,
    wrap64,
)
from cook.lang import load
from cook.pipeline import ProgramModel
from cook.representatives import Scalar
from cook.summaries import eval_expr
from cook.termination import _fold_bin


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
    assert _fold_bin("/", ("const", BIG), ("const", 1)) == ("const", BIG)
    assert _fold_bin("%", ("const", -7), ("const", 2)) == ("const", -1)


def test_reified_taints_opaque_loop_writes(opaque_loop_caller):
    p, sym = load(opaque_loop_caller)
    model = ProgramModel(p, sym)
    st = run_reified(p, sym, model.aliases, "bar", Store(), model.decisions())
    assert st.values["y"] is BOTTOM
    assert st.values["ret"] is BOTTOM
    assert not store_divergence_free(st)


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
            assert store_divergence_free(r), (seed, mid)
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
    assert store_divergence_free(st)
