"""Representatives, array partitions, write sets, and reachable l-values."""

import random

from cook.aliases import AliasAnalysis
from cook.generator import GenParams, generate_program
from cook.interp import Outcome, random_store, run_concrete
from cook.lang import ast, load
from cook.representatives import ArrayPart, Scalar, TypeField


def build(src):
    p, sym = load(src)
    return p, sym, AliasAnalysis(p, sym)


def test_scalar_representative_is_method_qualified():
    p, sym, al = build("method m(x: int): int { return x; }")
    assert al.scalar("m", "x") == Scalar("m", "x")


def test_field_representative_uses_highest_declaring_class():
    src = """
class A { f: int; }
class B extends A {}
method m(o: B): int {
  var x: int;
  x := o.f;
  return x;
}
"""
    p, sym, al = build(src)
    assert al.field_rep("m", "o", "f") == TypeField("A", "f")


def test_array_copy_joins_partitions():
    src = """
method m(a: int[], b: int[], i: int, j: int): int {
  var x: int;
  a := b;
  x := a[i];
  x := b[j];
  return x;
}
"""
    p, sym, al = build(src)
    assert al.array_rep("m", "a") == al.array_rep("m", "b")


def test_unrelated_arrays_stay_distinct():
    src = """
method m(a: int[], b: int[], i: int): int {
  var x: int;
  x := a[i];
  x := b[i];
  return x;
}
"""
    p, sym, al = build(src)
    assert al.array_rep("m", "a") != al.array_rep("m", "b")


def test_arrays_join_across_calls_and_returns():
    src = """
method id(xs: int[]): int[] {
  return xs;
}
method m(a: int[]): int {
  var b: int[];
  var x: int;
  var i: int;
  i := 0;
  b := id(a);
  x := b[i];
  return x;
}
"""
    p, sym, al = build(src)
    assert al.array_rep("m", "a") == al.array_rep("m", "b")
    assert al.array_rep("id", "xs") == al.array_rep("m", "a")


def test_written_reps_simple_sequence():
    p, sym, al = build(
        "method m(): int { var x: int; var y: int; x := 1; y := x; return y; }"
    )
    m = p.methods[0]
    assert al.written_reps("m", m.body[:2]) == frozenset({Scalar("m", "x"), Scalar("m", "y")})


def test_written_reps_of_opaque_loop_body(opaque_loop_caller):
    p, sym = load(opaque_loop_caller)
    al = AliasAnalysis(p, sym)
    bar = sym.methods["bar"]
    loop = [s for s in ast.walk(bar.body) if isinstance(s, ast.While)][0]
    assert al.written_reps("bar", loop) == frozenset({Scalar("bar", "y")})


def test_written_reps_heap_targets():
    src = """
class A { f: int; }
method m(o: A, a: int[], n: int): int {
  var i: int; var one: int; var v: int;
  one := 1; i := 0; v := 3;
  while i < n do {
    a[i] := v;
    o.f := v;
    i := i + one;
  }
  return i;
}
"""
    p, sym, al = build(src)
    loop = [s for s in ast.walk(p.methods[0].body) if isinstance(s, ast.While)][0]
    reps = al.written_reps("m", loop)
    assert TypeField("A", "f") in reps
    assert al.array_rep("m", "a") in reps


def test_written_reps_cover_interpreter_write_trace():
    rng = random.Random(5)
    checked = 0
    for seed in range(40):
        p = generate_program(
            seed, GenParams(methods=5, loop=0.25, branch=0.4, heap=0.4, call=0.15)
        )
        from cook.lang.check import check

        sym = check(p)
        al = AliasAnalysis(p, sym)
        for m in p.methods:
            if m.extern:
                continue
            store = random_store(sym, al, m.id, rng)
            args = [store.values[f.name] for f in m.formals]
            out = run_concrete(p, sym, al, m.id, args, fuel=50_000)
            if out.kind != Outcome.FINISHED:
                continue
            written = set(al.written_reps(m.id, m.body))
            assert set(out.write_trace) <= written, (
                seed,
                m.id,
                set(out.write_trace) - written,
            )
            checked += 1
    assert checked >= 100


def test_rlv_scalar_is_empty():
    p, sym, al = build("method m(x: int): int { return x; }")
    assert al.reachable_lvalues("m", "x") == frozenset()


def test_rlv_follows_field_chain():
    src = """
class B { x: int; }
class A { b: B; }
method m(a: A): int {
  var t: int;
  t := 0;
  return t;
}
"""
    p, sym, al = build(src)
    assert al.reachable_lvalues("m", "a") == frozenset(
        {TypeField("A", "b"), TypeField("B", "x")}
    )


def test_rlv_terminates_on_recursive_types():
    src = """
class N { next: N; v: int; }
method m(n: N): int {
  var t: int;
  t := 0;
  return t;
}
"""
    p, sym, al = build(src)
    assert al.reachable_lvalues("m", "n") == frozenset(
        {TypeField("N", "next"), TypeField("N", "v")}
    )


def test_rlv_array_formal_includes_its_partition():
    src = """
method m(a: int[]): int {
  var t: int;
  t := 0;
  return t;
}
"""
    p, sym, al = build(src)
    assert al.reachable_lvalues("m", "a") == frozenset({al.array_rep("m", "a")})


def test_representative_is_deterministic():
    src = """
class A { f: int; }
method m(o: A, a: int[], i: int): int {
  var x: int;
  x := o.f;
  x := a[i];
  return x;
}
"""
    p1, sym1, al1 = build(src)
    p2, sym2, al2 = build(src)
    assert al1.field_rep("m", "o", "f") == al2.field_rep("m", "o", "f")
    assert al1.array_rep("m", "a") == al2.array_rep("m", "a")


def test_write_trace_respects_aliasing():
    """Two names for one array produce the same trace representative."""
    src = """
method m(a: int[]): int {
  var b: int[];
  var i: int;
  var v: int;
  i := 0;
  v := 7;
  b := a;
  b[i] := v;
  return v;
}
"""
    p, sym, al = build(src)
    rng = random.Random(1)
    store = random_store(sym, al, "m", rng)
    out = run_concrete(p, sym, al, "m", [store.values["a"]])
    assert out.kind == Outcome.FINISHED
    part_writes = [r for r in out.write_trace if isinstance(r, ArrayPart)]
    assert part_writes and all(r == al.array_rep("m", "a") for r in part_writes)
