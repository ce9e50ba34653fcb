"""Dependence transfer rules and the two fixpoints."""

import random

import pytest

from cook.aliases import AliasAnalysis
from cook.analysis import (
    Analyzer,
    analyze_program,
    import_summaries,
    node_spec,
    transfer,
)
from cook.generator import GenParams, generate_program
from cook.interp import InterpFault, Store, collect_taints, random_store, run_reified
from cook.lang import ast, load
from cook.pipeline import ProgramModel
from cook.report import transformed_model
from cook.representatives import BOTTOM, ArrayPart, Bottom, Scalar, TypeField

RULES_SRC = """
class A { f: int; }
method callee(a1: int, a2: int): int {
  var t: int;
  t := a1 + a2;
  return t;
}
method m(o: A, arr: int[], y: int, z: int): int {
  var x: int;
  var r: int;
  x := 0;
  return x;
}
"""


def rule_ctx():
    p, sym = load(RULES_SRC)
    al = AliasAnalysis(p, sym)
    sc = lambda n: Scalar("m", n)
    return p, sym, al, sc


def d_of(*pairs):
    return frozenset((a, b, None) for a, b in pairs)


def ident(*reps):
    return d_of(*((r, r) for r in reps))


def out_of(s, d, summaries=None):
    """OUT of statement `s` in method `m` through the transfer the method
    fixpoint runs."""
    p, sym, al, sc = rule_ctx()
    node = node_spec(s, "m", al, sym)
    return transfer(node, d, import_summaries(node, summaries or {}))


def fact_pairs(facts):
    return frozenset((d, s) for d, s, _ in facts)


# -- the nine transfer rows, exact --------------------------------------------


def test_rule_const():
    p, sym, al, sc = rule_ctx()
    d = d_of((sc("x"), sc("y")), (sc("z"), sc("z")))
    # generates nothing, kills x's facts
    assert out_of(ast.ConstAssign("x", 5), d) == d_of((sc("z"), sc("z")))


def test_rule_copy():
    p, sym, al, sc = rule_ctx()
    out = out_of(ast.CopyAssign("x", "y"), d_of((sc("x"), sc("z"))) | ident(sc("y")))
    assert fact_pairs(out) == {(sc("x"), sc("y")), (sc("y"), sc("y"))}


def test_rule_unary():
    p, sym, al, sc = rule_ctx()
    d = ident(sc("y"))
    out = out_of(ast.UnaryAssign("x", "-", "y"), d)
    assert out == d | d_of((sc("x"), sc("y")))


def test_rule_binary():
    p, sym, al, sc = rule_ctx()
    d = ident(sc("y"), sc("z"))
    out = out_of(ast.BinaryAssign("x", "y", "+", "z"), d)
    assert out == d | d_of((sc("x"), sc("y")), (sc("x"), sc("z")))


def test_rule_array_read():
    p, sym, al, sc = rule_ctx()
    part = al.array_rep("m", "arr")
    d = d_of((sc("x"), sc("z")), (part, sc("t")))
    out = out_of(ast.ArrayRead("x", "arr", "y"), d)
    # x takes the partition's facts; its own old facts die
    assert fact_pairs(out) == {(sc("x"), sc("t")), (part, sc("t"))}


def test_rule_array_write_kills_nothing():
    p, sym, al, sc = rule_ctx()
    part = al.array_rep("m", "arr")
    d = d_of((part, sc("y")), (sc("x"), sc("x"))) | ident(sc("z"))
    out = out_of(ast.ArrayWrite("arr", "y", "z"), d)
    assert out == d | d_of((part, sc("z")))


def test_rule_field_read_and_write_use_representative():
    p, sym, al, sc = rule_ctx()
    tf = TypeField("A", "f")
    d = d_of((tf, sc("t")))
    out = out_of(ast.FieldRead("x", "o", "f"), d)
    assert fact_pairs(out) == {(sc("x"), sc("t")), (tf, sc("t"))}
    d = d_of((tf, sc("y"))) | ident(sc("z"))
    out = out_of(ast.FieldWrite("o", "f", "z"), d)
    assert out == d | d_of((tf, sc("z")))  # weak update


def test_rule_return():
    p, sym, al, sc = rule_ctx()
    d = d_of((sc("x"), sc("y")))
    assert out_of(ast.Return("x"), d) == d | d_of((sc("ret"), sc("y")))


def test_rule_call_substitutes_actuals_and_ret():
    p, sym, al, sc = rule_ctx()
    summary = frozenset(
        {
            (Scalar("callee", "ret"), Scalar("callee", "a1"), None),
            (Scalar("callee", "ret"), Scalar("callee", "a2"), None),
        }
    )
    s = ast.Call("r", "callee", ("y", "z"))
    d = d_of((sc("r"), sc("x"))) | ident(sc("y"), sc("z"))
    out = out_of(s, d, {"callee": summary})
    assert fact_pairs(out) == {
        (sc("r"), sc("y")),
        (sc("r"), sc("z")),
        (sc("y"), sc("y")),
        (sc("z"), sc("z")),
    }


def test_rule_bottom_assignment():
    p, sym, al, sc = rule_ctx()
    s = ast.BottomAssign((sc("x"),), ast.DivergenceCause.LOOP)
    d = d_of((sc("x"), sc("y")), (sc("z"), sc("z")))
    assert out_of(s, d) == d_of((sc("z"), sc("z"))) | {
        (sc("x"), BOTTOM, ast.DivergenceCause.LOOP)
    }


def test_worked_data_dep_example():
    """data_dep({(x,t),(y,p)}, x := y) = {(x,p),(y,p)}."""
    p, sym, al, sc = rule_ctx()
    d = d_of((sc("x"), sc("t")), (sc("y"), sc("p")))
    out = out_of(ast.CopyAssign("x", "y"), d)
    assert out == d_of((sc("x"), sc("p")), (sc("y"), sc("p")))


def test_data_dep_keeps_bottom_sourced_gen():
    p, sym, al, sc = rule_ctx()
    s = ast.BottomAssign((sc("x"),), ast.DivergenceCause.API)
    assert out_of(s, frozenset()) == frozenset({(sc("x"), BOTTOM, ast.DivergenceCause.API)})


def test_deref_pairs_compose_with_table_rules():
    p, sym, al, sc = rule_ctx()
    part = al.array_rep("m", "arr")
    d = ident(part, sc("arr"), sc("y"))
    out = out_of(ast.ArrayRead("x", "arr", "y"), d)
    assert out == d | d_of((sc("x"), part), (sc("x"), sc("arr")), (sc("x"), sc("y")))
    tf = TypeField("A", "f")
    d = ident(sc("o"))
    out = out_of(ast.FieldWrite("o", "f", "z"), d)
    assert out == d | d_of((tf, sc("o")))


def test_imported_bottom_is_kept_and_frame_facts_are_composed():
    p, sym, al, sc = rule_ctx()
    summary = frozenset(
        {
            (Scalar("callee", "ret"), BOTTOM, ast.DivergenceCause.RECURSION),
            (TypeField("A", "f"), Scalar("callee", "a1"), None),
        }
    )
    d = d_of((sc("y"), sc("t")))
    out = out_of(ast.Call("r", "callee", ("y", "z")), d, {"callee": summary})
    assert out == d | {
        (sc("r"), BOTTOM, ast.DivergenceCause.RECURSION),
        (TypeField("A", "f"), sc("t"), None),
    }


def test_pass_nodes_return_in_unchanged():
    p, sym, al, sc = rule_ctx()
    d = ident(sc("x"))
    cond = ast.Cond("x", ">", "y")
    for s in (None, ast.IfElse(cond, (), ()), ast.While(cond, ())):
        assert transfer(node_spec(s, "m", al, sym), d) is d


# -- method fixpoint -----------------------------------------------------------


def method_facts_of(src, mid, safe=frozenset()):
    p, sym = load(src)
    model = ProgramModel(p, sym, safe_list=safe)
    tmodel = transformed_model(model)
    an = Analyzer(tmodel)
    return an, an.method_facts(mid, {m: frozenset() for m in tmodel.methods})


def test_branch_induces_control_dependence_fact():
    src = """
method m(x: int, z: int): int {
  var y: int; var zero: int;
  y := 0; zero := 0;
  if x > zero then { y := z; }
  return y;
}
"""
    _, facts = method_facts_of(src, "m")
    assert (Scalar("m", "y"), Scalar("m", "x"), None) in facts


def test_straight_line_lineage_without_bottom():
    src = "method m(): int { var x: int; x := 5; return x; }"
    _, facts = method_facts_of(src, "m")
    assert not any(isinstance(f[1], Bottom) for f in facts)
    # x := 5 kills x's identity; ret has no surviving sources
    assert not any(f[0] == Scalar("m", "ret") for f in facts)


def test_tainted_branch_taints_guarded_write(api_call_unused):
    _, facts = method_facts_of(api_call_unused, "bar")
    assert (
        Scalar("bar", "y"),
        BOTTOM,
        ast.DivergenceCause.API,
    ) in facts
    assert any(f[0] == Scalar("bar", "ret") and isinstance(f[1], Bottom) for f in facts)


def test_nested_branch_facts_flow_from_both_levels():
    src = """
method m(a: int, b: int, z: int): int {
  var y: int; var zero: int;
  y := 0; zero := 0;
  if a > zero then {
    if b > zero then {
      y := z;
    }
  }
  return y;
}
"""
    _, facts = method_facts_of(src, "m")
    assert (Scalar("m", "y"), Scalar("m", "a"), None) in facts
    assert (Scalar("m", "y"), Scalar("m", "b"), None) in facts


def test_divergence_propagates_through_assignment_chain():
    src = """
extern method api(): int;
method m(): int {
  var a: int; var b: int; var c: int;
  a := api();
  b := a;
  c := b;
  return c;
}
"""
    _, facts = method_facts_of(src, "m")
    for v in ("a", "b", "c", "ret"):
        assert any(
            f[0] == Scalar("m", v) and isinstance(f[1], Bottom) for f in facts
        ), v


def test_flow_sensitive_copy_chain_has_no_spurious_flow():
    src = """
method m(y0: int, z: int): int {
  var x: int; var y: int;
  y := y0;
  x := y;
  y := z;
  return x;
}
"""
    _, facts = method_facts_of(src, "m")
    # x depends on y's old value (y0), never on z
    assert (Scalar("m", "x"), Scalar("m", "y0"), None) in facts
    assert (Scalar("m", "x"), Scalar("m", "z"), None) not in facts
    assert (Scalar("m", "y"), Scalar("m", "z"), None) in facts


# -- program fixpoint -----------------------------------------------------------


def test_golden_verdicts(clean_chain, opaque_loop_caller, api_call_unused):
    from tests.conftest import run_pipeline

    _, ra = run_pipeline(clean_chain)
    assert ra.st == frozenset({"foo", "bar"})

    _, rb = run_pipeline(opaque_loop_caller)
    assert rb.swamp == frozenset({"foo", "bar"})
    assert rb.causes["bar"] == frozenset({ast.DivergenceCause.LOOP})
    assert any(
        f[0] == Scalar("foo", "ret") and isinstance(f[1], Bottom)
        for f in rb.facts["foo"]
    )

    _, rc = run_pipeline(api_call_unused)
    assert rc.swamp == frozenset({"foo", "bar"})
    assert rc.causes["bar"] == frozenset({ast.DivergenceCause.API})
    _, rc_post = run_pipeline(api_call_unused, swamp_test="post")
    assert rc_post.st == frozenset({"foo"}) and rc_post.swamp == frozenset({"bar"})


def test_summary_strips_frame_locals_keeps_ret_and_formal_sources():
    src = """
method inc(x0: int): int {
  var t: int;
  t := x0;
  return t;
}
method use(a: int): int {
  var r: int;
  r := inc(a);
  return r;
}
"""
    from tests.conftest import run_pipeline

    _, res = run_pipeline(src)
    assert (Scalar("inc", "ret"), Scalar("inc", "x0"), None) in res.summaries["inc"]
    assert not any(
        f[0] == Scalar("inc", "t") or f[1] == Scalar("inc", "t")
        for f in res.summaries["inc"]
    )
    # the call site substituted the actual for the formal
    assert (Scalar("use", "r"), Scalar("use", "a"), None) in res.facts["use"]


GUARDED_DEAD_WRITE = """
extern method api(): int;
method helper(a: int): int { var t: int; t := a; return t; }
method mid(x: int): int {
  var r: int; var zero: int; var dead: int;
  zero := 0;
  r := api();
  if r != zero then { dead := WRITE; }
  return x;
}
method top(y: int): int { var z: int; z := mid(y); return z; }
"""


def test_dead_guarded_copy_keeps_the_caller_an_island():
    from tests.conftest import run_pipeline

    for swamp_test in ("pre", "post"):
        _, res = run_pipeline(GUARDED_DEAD_WRITE.replace("WRITE", "x"), swamp_test=swamp_test)
        assert "top" in res.st, swamp_test


@pytest.mark.xfail(
    strict=True,
    reason="a call node's control-dependence writes come from `written_reps`, which "
    "includes callee-frame scalars; they survive `strip_locals` as summary facts",
)
def test_dead_guarded_call_leaves_no_callee_frame_facts():
    from tests.conftest import run_pipeline

    for swamp_test in ("pre", "post"):
        _, res = run_pipeline(
            GUARDED_DEAD_WRITE.replace("WRITE", "helper(x)"), swamp_test=swamp_test
        )
        assert not any(
            isinstance(rep, Scalar) and rep.method == "helper"
            for fact in res.summaries["mid"]
            for rep in fact[:2]
        ), swamp_test
        assert "top" in res.st, swamp_test


def test_fixpoint_identical_across_worklist_orders():
    p = generate_program(
        7, GenParams(methods=20, loop=0.2, opaque_loop=0.1, recursion=0.08, extern=0.12, call=0.4)
    )
    model = ProgramModel(p)
    tmodel = transformed_model(model)
    base = analyze_program(tmodel)
    callees_first = tmodel.analysis_order()
    orders = [callees_first[::-1]]
    for seed in range(3):
        shuffled = list(callees_first)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    for order in orders:
        assert order != callees_first
        # the worklist starts from the analysis order, so this changes the
        # order in which methods are first visited and requeued
        tmodel.analysis_order = lambda order=order: list(order)
        assert analyze_program(tmodel) == base, order


def test_rerunning_on_fixpoint_summaries_is_stable():
    p = generate_program(
        3, GenParams(methods=10, loop=0.2, opaque_loop=0.1, recursion=0.05, extern=0.1, call=0.3)
    )
    model = ProgramModel(p)
    tmodel = transformed_model(model)
    res = analyze_program(tmodel)
    an = Analyzer(tmodel)
    for mid in tmodel.methods:
        again = an.method_facts(mid, res.summaries)
        assert again == res.facts[mid]
        assert an.strip_locals(mid, again) == res.summaries[mid]


def test_facts_grow_monotonically_with_summaries():
    p = generate_program(
        5, GenParams(methods=8, loop=0.2, extern=0.15, call=0.4)
    )
    model = ProgramModel(p)
    tmodel = transformed_model(model)
    res = analyze_program(tmodel)
    an = Analyzer(tmodel)
    empty = {m: frozenset() for m in tmodel.methods}
    for mid in tmodel.methods:
        first = an.method_facts(mid, empty)
        assert first <= res.facts[mid]


def test_safe_list_growth_never_shrinks_islands():
    src_parts = ["extern method e{k}(): int;".format(k=k) for k in range(3)]
    body = """
method m{k}(): int {{
  var r: int;
  r := e{k}();
  return r;
}}
"""
    src = "\n".join(src_parts) + "".join(body.format(k=k) for k in range(3))
    from tests.conftest import run_pipeline

    chain = [frozenset(), frozenset({"e0"}), frozenset({"e0", "e1"}), frozenset({"e0", "e1", "e2"})]
    last = None
    for safe in chain:
        _, res = run_pipeline(src, safe=safe)
        if last is not None:
            assert last <= res.st
        last = res.st
    assert last == frozenset({"m0", "m1", "m2"})


# (loop, opaque_loop, nested policy, generator seeds, reified runs at least);
# seven seeds of each loop profile keep the loops' share of the test near 4 s
ORACLE_PROFILES = (
    (0.0, 0.0, "basic", range(25), 200),
    (0.2, 0.1, "basic", range(7), 90),
    (0.2, 0.1, "summary", range(7), 90),
    (0.3, 0.1, "basic", range(7), 90),
    (0.3, 0.1, "summary", range(7), 90),
)


def test_reified_taints_within_analysis_facts():
    rng = random.Random(21)
    for loop, opaque_loop, policy, seeds, at_least in ORACLE_PROFILES:
        checked = 0
        for seed in seeds:
            p = generate_program(
                seed,
                GenParams(methods=5, loop=loop, opaque_loop=opaque_loop, recursion=0.06,
                          extern=0.2, call=0.3, heap=0.35),
            )
            model = ProgramModel(p, nested_policy=policy)
            tmodel = transformed_model(model)
            res = analyze_program(tmodel)
            dec = model.decisions()
            for mid in model.methods:
                landfall_bottoms = {
                    f[0] for f in res.facts[mid] if isinstance(f[1], Bottom)
                }
                for k in range(3):
                    store = random_store(model.symbols, model.aliases, mid, rng)
                    try:
                        out = run_reified(p, model.symbols, model.aliases, mid, store, dec)
                    except InterpFault:
                        continue
                    taints = collect_taints(out, model.aliases, mid)
                    assert taints <= landfall_bottoms, (
                        loop, policy, seed, mid, taints - landfall_bottoms
                    )
                    checked += 1
        assert checked >= at_least, (loop, policy, checked)
