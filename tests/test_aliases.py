"""Representatives, array partitions, write sets, and reachable l-values."""

import random

import pytest

from cook.aliases import AliasAnalysis
from cook.generator import GenParams, generate_program
from cook.interp import Outcome, random_store, run_concrete
from cook.lang import ast, load, parse_unit
from cook.lang.check import check
from cook.pipeline import ProgramModel
from cook.report import transformed_model
from cook.representatives import ArrayPart, Scalar, TypeField
from profiles import CENSUS, ISLANDS, LOOP_DENSE
from reference_aliases import ReferenceAliases, node_table_writes, reference_of


def build(src):
    p, sym = load(src)
    return p, sym, AliasAnalysis(p, sym)


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
    p, sym = load("method m(): int { var x: int; var y: int; x := 1; y := x; return y; }")
    al = ReferenceAliases(p, sym)
    m = p.methods[0]
    assert al.written_reps("m", m.body[:2]) == frozenset({Scalar("m", "x"), Scalar("m", "y")})


def test_written_reps_of_opaque_loop_body(opaque_loop_caller):
    p, sym = load(opaque_loop_caller)
    al = ReferenceAliases(p, sym)
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
    p, sym = load(src)
    al = ReferenceAliases(p, sym)
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
        sym = check(p)
        al = ReferenceAliases(p, sym)
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


PROFILES = (
    ("census", CENSUS, "basic", range(4)),
    ("islands", ISLANDS, "basic", range(3)),
    ("loops", LOOP_DENSE, "summary", range(30)),
)


@pytest.mark.parametrize("params", (CENSUS, ISLANDS), ids=("census", "islands"))
def test_heap_writes_are_the_heap_part_of_call_writes(params):
    """`heap_writes` is the heap part of the reference's whole closure."""
    nonempty = 0
    for seed in range(6):
        model = ProgramModel(generate_program(seed, GenParams(**params)))
        for m in (model, transformed_model(model)):
            al, ref = m.aliases, reference_of(m)
            for mid in al.calls:
                heap = frozenset(r for r in ref.call_writes(mid) if not isinstance(r, Scalar))
                assert al.heap_writes(mid) == heap, (seed, mid)
                nonempty += bool(heap)
    assert nonempty >= 30, nonempty


def test_members_of_a_call_cycle_share_one_heap_write_set():
    src = """
class A { f: int; g: int; }
method even(o: A, n: int): int { var r: int; o.f := n; r := odd(o, n); return r; }
method odd(o: A, n: int): int { var r: int; o.g := n; r := even(o, n); return r; }
method top(o: A): int { var r: int; r := even(o, r); return r; }
"""
    p, sym, al = build(src)
    assert al.heap_writes("even") is al.heap_writes("odd")
    assert al.heap_writes("even") == {TypeField("A", "f"), TypeField("A", "g")}
    assert al.heap_writes("top") == al.heap_writes("even")


def models(params, policy, seeds):
    """The first and the rewritten model of each seed's generated program."""
    for seed in seeds:
        model = ProgramModel(generate_program(seed, GenParams(**params)), nested_policy=policy)
        yield seed, model, transformed_model(model)


def assert_walks_as_the_reference(model, tmodel) -> None:
    """Partitions, heap targets, call rows and heap write sets equal those
    of the walk that tested each statement with `isinstance`, for the first
    model and for the rewritten one, which takes the `base` path. The
    analysis's write set of each method of the rewritten model, the union
    of its node table's writes built callees first, is the ids of the
    reference's whole closure, callee-frame scalars included."""
    ref = ReferenceAliases(model.program, model.symbols)
    ref2 = ReferenceAliases(tmodel.program, tmodel.symbols, base=ref)
    for al, ra in ((model.aliases, ref), (tmodel.aliases, ref2)):
        assert al._part_ids == ra._part_ids
        assert al.calls == ra.calls
        assert al._targets == {
            mid: frozenset(r for r in reps if type(r) is not Scalar)
            for mid, reps in ra._targets.items()
        }
        for mid in al.calls:
            assert al.heap_writes(mid) == ra.heap_writes(mid), mid
    assert node_table_writes(tmodel) == {mid: ref2.call_writes(mid) for mid in tmodel.methods}


@pytest.mark.parametrize(
    "params, policy, seeds", [p[1:] for p in PROFILES], ids=[p[0] for p in PROFILES]
)
def test_walk_matches_the_reference_walk(params, policy, seeds):
    arrays = rewritten = 0
    for seed, model, tmodel in models(params, policy, seeds):
        assert_walks_as_the_reference(model, tmodel)
        arrays += len(model.aliases._part_ids)
        rewritten += tmodel.program != model.program
    assert arrays
    assert rewritten or params is ISLANDS  # islands have no divergence to rewrite


# arrays flow through fields, calls, returns and copies, which the generator
# never writes, and the rewrite leaves bottom assignments in `mix`
ARRAY_TRAFFIC = """
class A { d: int[]; n: int; }
class B extends A { e: int[]; }
extern method api(x: int): int;
method put(o: A, a: int[]): int { var r: int; o.d := a; r := 0; return r; }
method get(o: B): int[] { var a: int[]; a := o.d; return a; }
method mix(o: B, a: int[], b: int[], i: int): int {
  var c: int[]; var x: int; var r: int; var lo: int; var hi: int;
  c := get(o);
  x := put(o, b);
  c[i] := x;
  a := c;
  o.e := a;
  lo := 0; hi := 1;
  while lo < hi do { x := x + i; }
  r := api(x);
  o.n := r;
  return x;
}
"""


def test_array_traffic_walks_as_the_reference():
    model = ProgramModel(*load(ARRAY_TRAFFIC))
    tmodel = transformed_model(model)
    assert any(type(s) is ast.BottomAssign for s in ast.walk(tmodel.symbols.methods["mix"].body))
    assert_walks_as_the_reference(model, tmodel)
    al = model.aliases
    assert al.partition_of("mix", "b") == al.partition_of_field(TypeField("B", "e"))


# every kind of call a write set closes over: `top` calls `get`, which
# dispatches to `A.get` and to `B.get`, the safe-listed extern `pure`, `dead`,
# whose call of `h` a divergent API result guards, and `even`, whose mutual
# recursion with `odd` the rewrite replaces; its first statement is a bottom
# assignment to its formal `y`, which nothing else writes
WRITE_SETS = """
class A { f: int; g: int; }
class B extends A { }
extern method api(): int;
extern method pure(x: int): int;
method h(a: int): int { var y: int; y := a; return y; }
method A.get(self: A, k: int): int { var t: int; t := self.f; return t; }
method B.get(self: B, k: int): int { var t: int; self.g := k; t := h(k); return t; }
method even(o: A, n: int): int { var r: int; o.f := n; r := odd(o, n); return r; }
method odd(o: A, n: int): int { var r: int; r := even(o, n); return r; }
method dead(x: int): int {
  var r: int; var zero: int; var d: int;
  zero := 0;
  r := api();
  if r != zero then { d := h(x); }
  return x;
}
method top(o: A, y: int): int {
  var x: int; var z: int;
  top::y := bottom(api);
  x := get(o, y);
  z := pure(y);
  z := even(o, y);
  z := dead(y);
  return x;
}
"""


def test_write_sets_of_every_kind_of_call_are_the_reference_closure():
    program = parse_unit(WRITE_SETS, allow_bottom=True)
    model = ProgramModel(program, check(program), safe_list=frozenset({"pure"}))
    tmodel = transformed_model(model)
    sym = tmodel.symbols
    calls = [
        (mid, [t.id for t in sym.resolve_call(sym.methods[mid], s)])
        for mid in tmodel.methods
        for s in ast.walk(sym.methods[mid].body)
        if type(s) is ast.Call
    ]
    assert calls == [
        ("B.get", ["h"]),
        ("dead", ["h"]),
        ("top", ["A.get", "B.get"]),
        ("top", ["pure"]),
        ("top", ["dead"]),
    ]
    assert_walks_as_the_reference(model, tmodel)
    top = {r.render() for r in node_table_writes(tmodel)["top"]}
    assert {"top::y", "h::y", "h::ret", "B.get::t", "dead::d", "A.f", "A.g"} <= top, top


# interfaces that meet again below, classes reachable through several of
# them and through superclasses, and field types that refer back to
# themselves, directly and through arrays
RLV_SHAPES = """
interface Top {}
interface L extends Top {}
interface R extends Top {}
interface LR extends L, R {}
class A implements LR { a: int; t: Top; }
class B extends A implements R { b: B[]; }
class C implements R { c: L; n: int[]; }
class D extends B implements Top { d: C; me: D; ds: D[]; }
class N { next: N; v: int; }
method m(t: Top, l: L, r: R, a: A, bs: B[], c: C, d: D, n: N): int {
  var lr: LR; var x: int;
  x := 0;
  return x;
}
"""


def assert_rlv_as_the_reference(program, sym) -> int:
    """`reachable_lvalues` of every reference formal and local equals the
    reference walk's; the number of variables compared."""
    al, ref = AliasAnalysis(program, sym), ReferenceAliases(program, sym)
    compared = 0
    for m in program.methods:
        if m.extern:
            continue
        for v in (*m.formals, *m.locals):
            if v.type != ast.INT:
                got = al.reachable_lvalues(m.id, v.name)
                assert got == ref.reachable_lvalues(m.id, v.name), (m.id, v.name)
                compared += 1
    return compared


def test_rlv_matches_the_reference_walk_on_diamonds_and_recursive_fields():
    program, sym = load(RLV_SHAPES)
    assert assert_rlv_as_the_reference(program, sym) == 9
    al = AliasAnalysis(program, sym)
    assert al.reachable_lvalues("m", "t") == al.reachable_lvalues("m", "a") | {
        TypeField("C", "c"),
        TypeField("C", "n"),
        ArrayPart(al.partition_of_field(TypeField("C", "n"))),
    }
    assert al.reachable_lvalues("m", "n") == {TypeField("N", "next"), TypeField("N", "v")}


@pytest.mark.parametrize("params, policy, seeds", [p[1:] for p in PROFILES], ids=[p[0] for p in PROFILES])
def test_rlv_matches_the_reference_walk_on_generated_programs(params, policy, seeds):
    compared = 0
    for _, model, tmodel in models(params, policy, seeds):
        compared += assert_rlv_as_the_reference(model.program, model.symbols)
        compared += assert_rlv_as_the_reference(tmodel.program, tmodel.symbols)
    assert compared


@pytest.mark.parametrize("params, policy", [p[1:3] for p in PROFILES], ids=[p[0] for p in PROFILES])
def test_the_walk_makes_no_scalar(monkeypatch, params, policy):
    """The walk keeps only heap targets, so neither model's alias analysis
    makes a `Scalar`; the reference, which keeps scalar targets too, makes
    some, so the counter sees them."""
    made: list[tuple[str, str]] = []
    init = Scalar.__init__

    def counting(self, method, name):
        made.append((method, name))
        init(self, method, name)

    def scalars_made(build) -> list[tuple[str, str]]:
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Scalar, "__init__", counting)
            build()
        return list(made)

    for seed, model, tmodel in models(params, policy, range(3)):
        p, p2 = model.program, tmodel.program
        assert scalars_made(lambda: AliasAnalysis(p, model.symbols)) == [], seed
        assert scalars_made(lambda: AliasAnalysis(p2, tmodel.symbols, base=model.aliases)) == []
        assert scalars_made(lambda: ReferenceAliases(p, model.symbols)), seed
