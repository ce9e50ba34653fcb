"""The divergence rewrite: rule shapes, idempotence, grammar preservation."""

import pytest

from cook.aliases import AliasAnalysis
from cook.generator import GenParams, generate_program
from cook.lang import ast, load, parse, pretty
from cook.lang.check import check
from cook.pipeline import ProgramModel
from cook.representatives import Scalar, TypeField
from cook.rewrite import rewrite_program


def rewrite(src, safe=frozenset()):
    p, sym = load(src)
    model = ProgramModel(p, sym, safe_list=frozenset(safe))
    return model, rewrite_program(model)


def body_stmts(p, mid):
    m = next(m for m in p.methods if m.id == mid)
    return m.body


def test_opaque_loop_becomes_bottom_assignment(opaque_loop_caller):
    model, p2 = rewrite(opaque_loop_caller)
    stmts = body_stmts(p2, "bar")
    bottoms = [s for s in stmts if isinstance(s, ast.BottomAssign)]
    assert len(bottoms) == 1
    (b,) = bottoms
    assert b.cause == ast.DivergenceCause.LOOP
    assert b.targets == (Scalar("bar", "y"),)
    assert not any(isinstance(s, ast.While) for s in ast.walk(p2.methods[1].body))


# the `while` runs at most once: its body returns on every path
RUNS_AT_MOST_ONCE = """
method m(a: int, b: int): int { var x: int; x := a; while a < b do { return x; } return x; }
method caller(a: int): int { var y: int; y := m(a, a); return y; }
"""


@pytest.mark.xfail(
    strict=True,
    reason="a `while` whose body returns on every path has no back edge, so it is no "
    "loop and gets no verdict; `verdict_for` calls it an unknown loop and the rewrite "
    "replaces it with a bottom assignment",
)
def test_a_while_that_runs_at_most_once_is_not_divergent(run_pipeline):
    _, res = run_pipeline(RUNS_AT_MOST_ONCE)
    assert res.st == {"m", "caller"}


def test_api_call_with_no_actuals_taints_only_target(api_call_unused):
    model, p2 = rewrite(api_call_unused)
    stmts = body_stmts(p2, "bar")
    bottoms = [s for s in stmts if isinstance(s, ast.BottomAssign)]
    assert len(bottoms) == 1
    (b,) = bottoms
    assert b.cause == ast.DivergenceCause.API
    assert b.targets == (Scalar("bar", "r"),)


def test_api_call_with_object_actual_taints_reachable_lvalues():
    src = """
class B { x: int; }
class A { b: B; }
extern method api(o: A): int;
method m(o: A): int {
  var r: int;
  r := api(o);
  return r;
}
"""
    model, p2 = rewrite(src)
    stmts = body_stmts(p2, "m")
    bottoms = [s for s in stmts if isinstance(s, ast.BottomAssign)]
    assert len(bottoms) == 2
    smear, target = bottoms
    assert set(smear.targets) == {TypeField("A", "b"), TypeField("B", "x")}
    assert target.targets == (Scalar("m", "r"),)
    assert {b.cause for b in bottoms} == {ast.DivergenceCause.API}


def test_recursive_call_taints_target_and_heap_effects():
    src = """
class A { f: int; }
method f(o: A, n: int): int {
  var r: int;
  o.f := n;
  n := n;
  r := f(o, n);
  return r;
}
method g(o2: A, k: int): int {
  var x: int;
  x := f(o2, k);
  return x;
}
"""
    model, p2 = rewrite(src)
    stmts = body_stmts(p2, "g")
    bottoms = [s for s in stmts if isinstance(s, ast.BottomAssign)]
    assert len(bottoms) == 1
    (b,) = bottoms
    assert b.cause == ast.DivergenceCause.RECURSION
    targets = set(b.targets)
    # call target and heap effects; frame-local names of the callee (even
    # its written formal, a private copy under call by value) are excluded
    assert targets == {Scalar("g", "x"), TypeField("A", "f")}


def test_divergence_free_program_is_untouched(clean_chain, counted_loop):
    for src in (clean_chain, counted_loop):
        model, p2 = rewrite(src)
        assert p2 == model.program


def test_terminating_loop_survives_with_rewritten_body():
    src = """
extern method api(): int;
method m(n: int): int {
  var i: int; var one: int; var r: int;
  one := 1; i := 0; r := 0;
  while i < n do {
    r := api();
    i := i + one;
  }
  return r;
}
"""
    model, p2 = rewrite(src)
    stmts = body_stmts(p2, "m")
    loops = [s for s in stmts if isinstance(s, ast.While)]
    assert len(loops) == 1
    assert any(isinstance(s, ast.BottomAssign) for s in loops[0].body)


def test_rewrite_is_idempotent_on_generated_programs():
    for seed in range(25):
        p = generate_program(
            seed,
            GenParams(
                methods=5, loop=0.25, opaque_loop=0.1, recursion=0.08, extern=0.12
            ),
        )
        model = ProgramModel(p)
        p2 = rewrite_program(model)
        sym2 = check(p2, allow_bottom=True)
        al2 = AliasAnalysis(p2, sym2, base=model.aliases)
        model2 = ProgramModel(p2, sym2, safe_list=model.safe_list, aliases=al2)
        p3 = rewrite_program(model2)
        assert p3 == p2, seed


def test_rewritten_output_reparses():
    for seed in range(15):
        p = generate_program(
            seed,
            GenParams(
                methods=5, loop=0.25, opaque_loop=0.1, recursion=0.08, extern=0.12
            ),
        )
        model = ProgramModel(p)
        p2 = rewrite_program(model)
        assert parse(pretty(p2), allow_bottom=True) == p2, seed


def test_bottom_statement_with_300_targets_reparses():
    # one opaque loop writing 300 locals becomes one 300-target BottomAssign
    names = [f"v{k}" for k in range(300)]
    src = (
        "method m(): int {\n  var lo: int; var hi: int; var one: int;\n"
        + "".join(f"  var {v}: int;\n" for v in names)
        + "  lo := 0; hi := 1; one := 1;\n"
        + "".join(f"  {v} := 0;\n" for v in names)
        + "  while lo < hi do {\n"
        + "".join(f"    {v} := {v} + one;\n" for v in names)
        + "  }\n  return v0;\n}\n"
    )
    _, p2 = rewrite(src)
    (b,) = [s for s in body_stmts(p2, "m") if isinstance(s, ast.BottomAssign)]
    assert len(b.targets) == 300
    assert parse(pretty(p2), allow_bottom=True) == p2


def test_no_divergent_constructs_survive():
    loops_checked = 0
    for seed in range(15):
        p = generate_program(
            seed,
            GenParams(
                methods=5, loop=0.2, opaque_loop=0.15, recursion=0.1, extern=0.15
            ),
        )
        model = ProgramModel(p)
        p2 = rewrite_program(model)
        sym2 = check(p2, allow_bottom=True)
        # a loop left in place is the original loop, or a copy of it with a
        # rewritten inner loop; either way it sits at the original's `loc`
        originals = {
            (m.id, s.loc): s for m in p.methods for s in ast.walk(m.body) if isinstance(s, ast.While)
        }
        for m in p2.methods:
            for s in ast.walk(m.body):
                if isinstance(s, ast.While):
                    original = originals[(m.id, s.loc)]
                    assert model.verdict_for(original).terminates, (seed, m.id, s.loc)
                    loops_checked += 1
        for m in p2.methods:
            if m.extern:
                continue
            for s in ast.walk(m.body):
                if isinstance(s, ast.Call):
                    for t in sym2.resolve_call(m, s):
                        assert t.id not in model.recursion, (seed, m.id)
                        assert not (t.extern and t.name in model.api_set), (seed, m.id)
    assert loops_checked >= 1, loops_checked


def test_cause_tags_partition_bottoms():
    for seed in range(15):
        p = generate_program(
            seed,
            GenParams(
                methods=5, loop=0.2, opaque_loop=0.15, recursion=0.1, extern=0.15
            ),
        )
        model = ProgramModel(p)
        p2 = rewrite_program(model)
        causes = {
            s.cause
            for m in p2.methods
            if not m.extern
            for s in ast.walk(m.body)
            if isinstance(s, ast.BottomAssign)
        }
        assert causes <= {
            ast.DivergenceCause.API,
            ast.DivergenceCause.LOOP,
            ast.DivergenceCause.RECURSION,
        }


def test_bottom_targets_are_deterministically_ordered():
    src = """
class A { f: int; }
method f(o: A, n: int): int {
  var r: int;
  o.f := n;
  r := f(o, n);
  return r;
}
"""
    _, p2a = rewrite(src)
    _, p2b = rewrite(src)
    assert p2a == p2b
