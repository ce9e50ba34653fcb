"""Dependence transfer rules, their bit-mask encoding and the two fixpoints."""

import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from cook import analysis
from cook.aliases import RET, AliasAnalysis
from cook.analysis import (
    CAUSE_BIT,
    SHIFT,
    Analyzer,
    NodeSpec,
    analyze_program,
    decode,
    node_spec,
    transfer,
)
from cook.cfg import find_loops, set_bits
from cook.generator import GenParams, generate_program
from cook.interp import InterpFault, collect_taints, random_store, run_reified
from cook.lang import ast, check, load, parse_unit
from cook.pipeline import ProgramModel
from cook.report import ReportConfig, analyze_sources, transformed_model
from cook.representatives import BOTTOM, ArrayPart, Bottom, Scalar, TypeField
import profiles
from reference_aliases import reference_of
from reference_node_table import ReferenceTable, round_robin

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
  var t: int;
  var p: int;
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


def rule_analyzer():
    p, sym = load(RULES_SRC)
    return Analyzer(ProgramModel(p, sym))


def out_of(s, d, summaries=None):
    """OUT of statement `s` in method `m` through the transfer the method
    fixpoint runs: `d` and the callee summaries encoded, OUT decoded. The
    methods' tables are built first, callees first, for a call's writes."""
    an = rule_analyzer()
    encoded = {mid: an.encode(facts) for mid, facts in (summaries or {}).items()}
    for mid in an.model.analysis_order():
        an.spec(mid, encoded)
    node = node_spec(s, "m", an, an.frame("m"), encoded)
    return an.decode(transfer(node, an.encode(d)))


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
    an = rule_analyzer()
    d = an.encode(ident(sc("x")))
    cond = ast.Cond("x", ">", "y")
    for s in (None, ast.IfElse(cond, (), ()), ast.While(cond, ())):
        assert transfer(node_spec(s, "m", an, an.frame("m"), {}), d) is d


# -- the encoding at its edges ---------------------------------------------------

API, LOOP, RECURSION = (
    ast.DivergenceCause.API, ast.DivergenceCause.LOOP, ast.DivergenceCause.RECURSION
)


def test_one_dependent_with_all_three_causes():
    an = rule_analyzer()
    x = Scalar("m", "x")
    three = frozenset({(x, BOTTOM, API), (x, BOTTOM, LOOP), (x, BOTTOM, RECURSION)})
    assert an.encode(three) == {an.rep_id(x): 0b111}
    assert an.decode({an.rep_id(x): 0b111}) == three


def test_a_cause_on_a_representative_source_is_rejected():
    an = rule_analyzer()
    with pytest.raises(AssertionError):
        an.encode({(Scalar("m", "x"), Scalar("m", "y"), LOOP)})
    with pytest.raises(AssertionError):
        an.encode({(Scalar("m", "x"), BOTTOM, None)})


THREE_CAUSES_SRC = """
extern method api(): int;
method rec(n: int): int { var r: int; r := rec(n); return r; }
method m(a: int, b: int): int {
  var x: int; var zero: int; var lo: int; var hi: int; var one: int;
  zero := 0; x := 0;
  if a > zero then { x := api(); } else {
    if b > zero then { x := rec(a); } else {
      lo := 0; hi := 1; one := 1;
      while lo < hi do { x := x + one; }
    }
  }
  return x;
}
"""


def test_three_causes_reach_one_dependent_through_a_method():
    _, facts = method_facts_of(THREE_CAUSES_SRC, "m")
    a, b, x, ret = (Scalar("m", v) for v in ("a", "b", "x", "ret"))
    lo, hi, one = (Scalar("m", v) for v in ("lo", "hi", "one"))
    # x is bottom for each cause on its own path and control-dependent on a
    # and b; lo, hi and one keep their entry value on the paths that skip them
    expected = ident(a, b, lo, hi, one) | d_of(
        (x, a), (x, b), (ret, a), (ret, b), (lo, a), (lo, b), (hi, a), (hi, b), (one, a), (one, b)
    )
    for dep in (x, ret):
        expected |= {(dep, BOTTOM, API), (dep, BOTTOM, LOOP), (dep, BOTTOM, RECURSION)}
    assert facts == expected


def test_masks_span_several_machine_words():
    n = 70
    formals = ", ".join(f"a{i}: int" for i in range(n))
    sums = "".join(f"  s := s + a{i};\n" for i in range(2, n))
    src = f"method m({formals}): int {{\n  var s: int;\n  s := a0 + a1;\n{sums}  return s;\n}}\n"
    an, facts = method_facts_of(src, "m")
    a = [Scalar("m", f"a{i}") for i in range(n)]
    s, ret = Scalar("m", "s"), Scalar("m", "ret")
    assert facts == ident(*a) | d_of(*((s, x) for x in a)) | d_of(*((ret, x) for x in a))
    assert max(an.rep_id(x) for x in a) >= 64


# more representatives than a machine word has bits, interned in this order;
# method `w` of WIDE_SRC declares the scalars
WIDE = tuple(Scalar("w", f"v{i}") for i in range(70)) + (TypeField("A", "f"), ArrayPart(0))
WIDE_SRC = (
    RULES_SRC
    + "method w(): int {\n"
    + "".join(f"  var v{i}: int;\n" for i in range(70))
    + "  return v0;\n}\n"
)
reps = st.sampled_from(WIDE)
causes = st.sampled_from(tuple(ast.DivergenceCause))
fact_sets = st.frozensets(
    st.one_of(st.tuples(reps, reps, st.none()), st.tuples(reps, st.just(BOTTOM), causes)),
    max_size=40,
)


def reference_transfer(gen, kills, bottoms, writes, branch, fv, d):
    """The transfer over sets of (dependent, source, cause) tuples: kill,
    compose each generated pair through IN, add the bottom facts, and give
    every write the sources `fv` has at its governing branch."""
    out = {f for f in d if f[0] not in kills}
    for dep, src in gen:
        out |= {(dep, y, c) for x, y, c in d if x == src}
    out |= {(dep, BOTTOM, cause) for dep, cause in bottoms}
    out |= {(w, y, c) for w in writes for x, y, c in branch if x == fv}
    return frozenset(out)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    gen=st.lists(st.tuples(reps, reps), max_size=6),
    kills=st.frozensets(reps, max_size=4),
    bottoms=st.lists(st.tuples(reps, causes), max_size=3),
    writes=st.frozensets(reps, max_size=4),
    branch=fact_sets,
    fv=reps,
    d=fact_sets,
)
def test_encoded_transfer_matches_the_set_reference(gen, kills, bottoms, writes, branch, fv, d):
    an = Analyzer(ProgramModel(*load(WIDE_SRC)))
    rid = an.rep_id
    for rep in WIDE:
        rid(rep)
    node = NodeSpec(
        gen=tuple((rid(dep), rid(src)) for dep, src in gen),
        kills=tuple(map(rid, kills)),
        bottoms=tuple((rid(dep), CAUSE_BIT[cause]) for dep, cause in bottoms),
        writes=tuple(map(rid, writes)),
    )
    ctrl = an.encode(branch).get(rid(fv), 0)  # what the method fixpoint ORs in
    encoded = an.encode(d)
    out = transfer(node, encoded, ctrl)
    assert an.decode(out) == reference_transfer(gen, kills, bottoms, writes, branch, fv, d)
    assert 0 not in out.values()
    if not (gen or kills or bottoms or (ctrl and writes)):
        assert out is encoded


# -- method fixpoint -----------------------------------------------------------


def method_facts_of(src, mid, safe=frozenset()):
    p, sym = load(src)
    model = ProgramModel(p, sym, safe_list=safe)
    tmodel = transformed_model(model)
    an = Analyzer(tmodel)
    return an, an.decode(an.method_facts(mid, {m: {} for m in tmodel.methods}))


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


def test_golden_verdicts(clean_chain, opaque_loop_caller, api_call_unused, run_pipeline):
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


def test_summary_strips_frame_locals_keeps_ret_and_formal_sources(run_pipeline):
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


def test_dead_guarded_copy_keeps_the_caller_an_island(run_pipeline):
    for swamp_test in ("pre", "post"):
        _, res = run_pipeline(GUARDED_DEAD_WRITE.replace("WRITE", "x"), swamp_test=swamp_test)
        assert "top" in res.st, swamp_test


@pytest.mark.xfail(
    strict=True,
    reason="a call writes the frame slots of its callees' tables "
    "(`CalleeFrames.frame_writes`), whose facts survive `strip_locals` as "
    "summary facts",
)
def test_dead_guarded_call_leaves_no_callee_frame_facts(run_pipeline):
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


def chaotic_iteration(tmodel, seed):
    """The program fixpoint by chaotic iteration over the reference builder's
    whole-closure rows (`tests/reference_node_table.py`), which compose every
    summary fact at a call and write the callees' whole closure: each
    method's exit facts (`ReferenceTable.method_facts`) over every method in
    a freshly shuffled order each round, with the summaries as they stand,
    until a round changes no summary. Decoded facts and summaries."""
    ref = ReferenceTable(tmodel)
    methods = list(tmodel.methods)
    rng = random.Random(seed)
    facts: dict = {}
    summaries: dict = {mid: frozenset() for mid in methods}
    changed = True
    while changed:
        changed = False
        rng.shuffle(methods)
        for mid in methods:
            facts[mid] = ref.method_facts(mid, summaries)
            stripped = reference_strip(tmodel.symbols, mid, facts[mid])
            changed |= stripped != summaries[mid]
            summaries[mid] = stripped
    return facts, summaries


def assert_as_the_reference(tmodel, seed=0):
    """The one pass's facts, summaries, verdicts and causes under `pre` and
    `post` are those of `chaotic_iteration`: a method is in the swamp when
    its facts (`pre`) or its summary (`post`) hold a bottom-sourced fact,
    and its causes are those of its facts."""
    facts, summaries = chaotic_iteration(tmodel, seed)
    causes = {mid: frozenset(c for _, _, c in fs if c) for mid, fs in facts.items()}
    for swamp_test, tested in (("pre", facts), ("post", summaries)):
        res = analyze_program(tmodel, swamp_test)
        assert dict(res.facts) == facts, swamp_test
        assert dict(res.summaries) == summaries, swamp_test
        assert res.causes == causes, swamp_test
        swamp = {mid for mid, fs in tested.items() if any(c for _, _, c in fs)}
        assert res.swamp == swamp and res.st == set(tmodel.methods) - swamp, swamp_test


@pytest.mark.parametrize("policy", ("basic", "summary"))
@pytest.mark.parametrize("profile", ("census", "heap", "loops"))
def test_one_callees_first_pass_equals_chaotic_iteration(profile, policy):
    for seed in range(3):
        params = GenParams(**PROFILES[profile])
        model = ProgramModel(generate_program(seed, params), nested_policy=policy)
        assert_as_the_reference(transformed_model(model), seed)


# callee-frame facts of every shape, and the scalars that stay in the node
# tables because a bottom assignment outside their method names them: `hurt`
# names its caller's `top::v`; `sib1` calls its sibling `sib2` under a branch,
# then names `sib2::y`, which kills the facts the call gave it, and the
# extern formal `ext::x`; `dead` calls `sib2` under a branch on a divergent
# API result; `get` dispatches to `A.get` and to `B.get`, which calls the
# three-deep chain `c1`, `c2`, `c3`, each call but the first governed
CALLEE_FRAMES = """
class A { f: int; }
class B extends A { }
extern method api(): int;
extern method ext(x: int): int;
method c3(a: int): int {
  var t: int; var zero: int;
  zero := 0; t := a;
  if t > zero then { t := api(); }
  return t;
}
method c2(a: int): int {
  var t: int; var zero: int;
  zero := 0; t := zero;
  if a > zero then { t := c3(a); }
  return t;
}
method c1(a: int, b: int): int {
  var t: int;
  t := c2(b);
  if t > a then { t := c2(a); }
  return t;
}
method sib1(p: int): int {
  var q: int; var zero: int;
  zero := 0;
  if p > zero then { q := sib2(p); }
  sib2::y := bottom(loop);
  ext::x := bottom(recursion);
  q := p;
  return q;
}
method sib2(p: int): int { var y: int; y := p; return y; }
method hurt(p: int): int { var u: int; top::v := bottom(api); u := p; return u; }
method A.get(self: A, k: int): int { var t: int; t := self.f; return t; }
method B.get(self: B, k: int): int { var t: int; t := c1(k, k); self.f := t; return t; }
method dead(x: int): int {
  var r: int; var zero: int; var d: int;
  zero := 0;
  r := api();
  if r != zero then { d := sib2(x); }
  return x;
}
method top(o: A, y: int): int {
  var v: int; var w: int; var zero: int;
  zero := 0;
  v := y;
  if v > zero then { w := sib2(v); w := sib1(w); }
  w := hurt(v);
  if w > zero then { w := dead(y); }
  w := get(o, w);
  return v;
}
"""


def test_callee_frame_facts_and_exposed_scalars_are_the_eager_reference():
    program = parse_unit(CALLEE_FRAMES, allow_bottom=True)
    tmodel = transformed_model(ProgramModel(program, check(program)))
    assert_as_the_reference(tmodel)
    res = analyze_program(tmodel)
    sc = Scalar
    # built after the fixpoint: two calls down, and through a virtual call
    assert (sc("c3", "t"), sc("c1", "a"), None) in res.facts["c1"]
    assert (sc("c3", "zero"), BOTTOM, API) in res.facts["top"]
    assert (sc("sib2", "ret"), BOTTOM, API) in res.facts["dead"]
    # kept in the tables: the bottom assignment killed what the call wrote
    assert (sc("sib2", "y"), BOTTOM, LOOP) in res.facts["sib1"]
    assert (sc("sib2", "y"), sc("sib1", "p"), None) not in res.facts["sib1"]
    assert (sc("sib2", "ret"), sc("sib1", "p"), None) in res.facts["sib1"]
    assert (sc("ext", "x"), BOTTOM, RECURSION) in res.summaries["top"]
    assert (sc("top", "v"), BOTTOM, API) in res.facts["top"]


def test_a_model_with_call_cycles_is_refused(mutual_recursion, run_pipeline):
    """The one pass is exact only on a rewritten model, which has no cycle."""
    p, sym = load(mutual_recursion)
    with pytest.raises(ValueError, match=r"\['even', 'odd'\]"):
        analyze_program(ProgramModel(p, sym))
    _, res = run_pipeline(mutual_recursion)
    assert res.swamp == {"even", "odd"} and res.st == {"top"}


def test_rerunning_on_fixpoint_summaries_is_stable():
    p = generate_program(
        3, GenParams(methods=10, loop=0.2, opaque_loop=0.1, recursion=0.05, extern=0.1, call=0.3)
    )
    model = ProgramModel(p)
    tmodel = transformed_model(model)
    res = analyze_program(tmodel)
    ref = ReferenceTable(tmodel)  # whole-closure rows, callee-frame facts composed
    for mid in tmodel.methods:
        again = ref.method_facts(mid, res.summaries)
        assert again == res.facts[mid]
        assert reference_strip(tmodel.symbols, mid, again) == res.summaries[mid]


def test_facts_grow_monotonically_with_summaries():
    p = generate_program(
        5, GenParams(methods=8, loop=0.2, extern=0.15, call=0.4)
    )
    model = ProgramModel(p)
    tmodel = transformed_model(model)
    res = analyze_program(tmodel)
    an = Analyzer(tmodel)
    empty = {m: {} for m in tmodel.methods}
    for mid in tmodel.methods:
        first = an.decode(an.method_facts(mid, empty))
        assert first <= res.facts[mid]


def reference_strip(sym, mid, facts):
    """`strip_locals` over (dependent, source, cause) tuples."""
    m = sym.methods[mid]
    formals = {p.name for p in m.formals}
    frame = formals | {p.name for p in m.locals}

    def own(rep, names):
        return isinstance(rep, Scalar) and rep.method == mid and rep.name in names

    return frozenset(
        f for f in facts if not own(f[0], frame) and not own(f[1], frame - formals)
    )


def test_strip_locals_clears_local_sources_and_frame_dependents():
    src = """
method m(a: int, b: int): int {
  var t: int; var u: int; var r: int;
  r := t + a; u := r + b; r := r + u;
  return r;
}
"""
    an, facts = method_facts_of(src, "m")
    ret, a, b, t = (Scalar("m", v) for v in ("ret", "a", "b", "t"))
    assert {(ret, t, None), (ret, a, None), (ret, b, None)} <= facts
    stripped = an.decode(an.strip_locals("m", an.encode(facts)))
    assert stripped == d_of((ret, a), (ret, b)) == reference_strip(an.sym, "m", facts)


def test_strip_locals_matches_the_tuple_rule_on_generated_programs():
    for seed in range(4):
        p = generate_program(seed, GenParams(methods=10, loop=0.2, extern=0.1, heap=0.4, call=0.4))
        tmodel = transformed_model(ProgramModel(p))
        res = analyze_program(tmodel)
        an = Analyzer(tmodel)
        for mid, facts in res.facts.items():
            stripped = an.decode(an.strip_locals(mid, an.encode(facts)))
            assert stripped == reference_strip(an.sym, mid, facts) == res.summaries[mid]


CENSUS_LIKE = dict(
    methods=16, classes=2, loop=0.2, opaque_loop=0.05, recursion=0.03, extern=0.08, call=0.3
)
HEAP_DISPATCH = dict(methods=30, classes=4, loop=0.15, heap=0.6, virtual=0.5, max_depth=1)
LOOP_DENSE = dict(methods=8, stmts=(2, 6), loop=0.7, opaque_loop=0.05, call=0.2)
PROFILES = {"census": CENSUS_LIKE, "heap": HEAP_DISPATCH, "loops": LOOP_DENSE}
# (profile, generator seed, nested policy, digest of the AnalysisResult); the
# digests were computed by the tuple-set fixpoint the bit-mask one replaced
PINNED = (
    ("census", 0, "basic", "3151ccbdff5833bd"),
    ("census", 7, "basic", "8cab3abf57713e81"),
    ("heap", 0, "basic", "023dc814377e292d"),
    ("heap", 4, "basic", "d3185765ce15be09"),
    ("loops", 5, "basic", "67c5e8153d614e3b"),
    ("loops", 5, "summary", "6f35baea39b56093"),
    ("loops", 6, "basic", "593524ad7b450099"),
    ("loops", 6, "summary", "d8dd9ee48f58baeb"),
)


def result_digest(res) -> str:
    """Digest of the sorted rendering of a result's facts, summaries and causes."""
    rows = [
        f"{kind} {mid} {dep.render()} {src.render()} {cause and cause.value}"
        for kind, table in (("fact", res.facts), ("summary", res.summaries))
        for mid, facts in table.items()
        for dep, src, cause in facts
    ]
    rows += [f"causes {mid} {sorted(c.value for c in cs)}" for mid, cs in res.causes.items()]
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "profile, seed, policy, digest", PINNED, ids=["-".join(map(str, p[:3])) for p in PINNED]
)
def test_fixpoint_results_are_pinned(profile, seed, policy, digest):
    params = GenParams(**PROFILES[profile])
    model = ProgramModel(generate_program(seed, params), nested_policy=policy)
    assert result_digest(analyze_program(transformed_model(model))) == digest


# -- the result's fact tables -------------------------------------------------


def pinned_result(profile, seed, policy):
    params = GenParams(**PROFILES[profile])
    model = ProgramModel(generate_program(seed, params), nested_policy=policy)
    return analyze_program(transformed_model(model))


def refuse_to_decode(monkeypatch):
    def fail(reps, d):
        raise AssertionError("decoded a fact set")

    monkeypatch.setattr(analysis, "decode", fail)


# the `islands` benchmark workload's profile: heap and dispatch heavy, with no
# opaque loops, APIs or recursion
ISLANDS_LIKE = dict(HEAP_DISPATCH, methods=50, opaque_loop=0, recursion=0, extern=0)


@pytest.mark.parametrize("swamp_test", ("pre", "post"))
@pytest.mark.parametrize("params", (CENSUS_LIKE, ISLANDS_LIKE), ids=("census", "islands"))
def test_a_report_decodes_no_facts(params, swamp_test, monkeypatch):
    refuse_to_decode(monkeypatch)
    program = generate_program(3, GenParams(**params))
    report = analyze_sources(program, check(program), ReportConfig(swamp_test=swamp_test))
    assert '"verdict"' in report.to_json() and report.to_text()
    assert {m.name for m in report.methods} == set(report.result.facts)


@pytest.mark.parametrize(
    "profile, seed, policy", [p[:3] for p in PINNED], ids=["-".join(map(str, p[:3])) for p in PINNED]
)
def test_fact_tables_equal_an_eager_decode_of_their_masks(profile, seed, policy):
    res = pinned_result(profile, seed, policy)
    for table in (res.facts, res.summaries):
        eager = {mid: decode(table._reps, table.masks(mid)) for mid in table}
        assert dict(table) == eager
        assert table == eager and eager == table


def test_length_iteration_and_membership_decode_nothing(monkeypatch):
    res = pinned_result("census", 0, "basic")
    methods = sorted(res.st | res.swamp)
    refuse_to_decode(monkeypatch)
    for table in (res.facts, res.summaries):
        assert len(table) == len(methods)
        assert sorted(table) == sorted(table.keys()) == methods
        assert methods[0] in table and "no such method" not in table
    with pytest.raises(AssertionError, match="decoded"):
        res.facts[methods[0]]


def test_a_read_decodes_once_and_keeps_the_set(monkeypatch):
    res = pinned_result("heap", 0, "basic")
    mid = next(iter(res.facts))
    calls = []
    monkeypatch.setattr(analysis, "decode", lambda reps, d: calls.append(mid) or decode(reps, d))
    first = res.facts[mid]
    assert res.facts[mid] is first and res.facts.get(mid) is first
    assert calls == [mid]
    with pytest.raises(KeyError):
        res.facts["no such method"]


def test_the_result_does_not_keep_the_analyzer_alive(monkeypatch):
    made = []
    init = Analyzer.__init__

    def recording_init(self, model):
        init(self, model)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Analyzer, "__init__", recording_init)
    # reference counting alone frees it: `analyze_sources` runs the pass
    # with the cycle collector off
    gc.disable()
    try:
        res = pinned_result("census", 7, "basic")
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()
    assert res.facts and all(res.facts[mid] is not None for mid in res.facts)


@pytest.mark.parametrize(
    "profile, seed, policy",
    [p[:3] for p in PINNED],
    ids=["-".join(map(str, p[:3])) for p in PINNED],
)
def test_node_writes_are_the_written_reps_of_their_statement(profile, seed, policy):
    params = GenParams(**PROFILES[profile])
    model = ProgramModel(generate_program(seed, params), nested_policy=policy)
    tmodel = transformed_model(model)
    an = Analyzer(tmodel)
    ref = reference_of(tmodel)
    empty = {m: {} for m in tmodel.methods}
    for mid in tmodel.analysis_order():
        spec = an.spec(mid, empty)
        later = frame_writes_of_calls(an, mid, spec)
        for n, s in enumerate(tmodel.methods[mid].cfg.nodes):
            writes = spec.nodes[n].writes
            if s is None or isinstance(s, (ast.IfElse, ast.While)):
                assert writes == (), (mid, n)  # entry, exit and branches
                continue
            reference = ref.written_reps(mid, s)
            assert set(writes) | later[n] == set(map(an.rep_id, reference)), (mid, n)


def frame_writes_of_calls(an, mid, spec):
    """Per node of the method's table, the frame slots that the internal
    targets of its call write (`CalleeFrames.frame_writes`), which its row
    leaves out: the control mask reaches them after the fixpoint."""
    sym = an.sym
    later = [frozenset()] * len(spec.nodes)
    for n in spec.calls:
        for target in sym.resolve_call(sym.methods[mid], spec.cfg.nodes[n]):
            if not target.extern:
                later[n] = later[n] | an.callee_frames.frame_writes(target.id)
    return later


def split_callee_frames(an, summaries):
    """Each summary mask dict split in two: the entries the program pass
    keeps, and the callee-frame ones, whose dependent is a scalar of another
    method (generated programs name no other method's scalar in a bottom
    assignment)."""
    kept, frames = {}, {}
    for mid, d in summaries.items():
        kept[mid], frames[mid] = {}, {}
        for k, mask in d.items():
            rep = an._reps[k]
            other = type(rep) is Scalar and rep.method != mid
            (frames if other else kept)[mid][k] = mask
    return kept, frames


def decoded_table(spec, reps):
    """A method's node table with every id decoded to its representative:
    per node its gen, kills, bottoms (one cause bit each) and writes, per
    node its control pairs, and the method's seeds, as sets."""
    rep = reps.__getitem__
    nodes = [
        (
            {(rep(dep), rep(src)) for dep, src in ns.gen},
            set(map(rep, ns.kills)),
            {(rep(dep), 1 << b) for dep, bits in ns.bottoms for b in set_bits(bits)},
            set(map(rep, ns.writes)),
        )
        for ns in spec.nodes
    ]
    control = [{(b, rep(v)) for b, v in pairs} for pairs in spec.control]
    return nodes, control, set(map(rep, spec.seeds))


@pytest.mark.parametrize("policy", ("basic", "summary"))
@pytest.mark.parametrize(
    "params", (CENSUS_LIKE, ISLANDS_LIKE, LOOP_DENSE), ids=("census", "islands", "loops")
)
def test_node_tables_decode_to_the_reference_builders(params, policy):
    """`Analyzer.spec` against the builder that hashed every representative
    (`tests/reference_node_table.py`), both under the one pass's final
    summaries: the reference composes the decoded ones whole. Ours is the
    table the pass builds, under the summaries without their callee-frame
    facts, with each call row's deferred part added: the rows the
    callee-frame facts compose and the callees' frame writes. Each numbers
    its own ids."""
    for seed in range(3):
        model = ProgramModel(generate_program(seed, GenParams(**params)), nested_policy=policy)
        tmodel = transformed_model(model)
        res = analyze_program(tmodel)
        an, ref = Analyzer(tmodel), ReferenceTable(tmodel)
        kept, frames = split_callee_frames(an, {m: an.encode(f) for m, f in res.summaries.items()})
        for mid in tmodel.analysis_order():
            spec = an.spec(mid, kept)
            nodes, control, seeds = decoded_table(spec, an._reps)
            deferred, _, _ = decoded_table(an.spec(mid, frames), an._reps)
            later = frame_writes_of_calls(an, mid, spec)
            for n in spec.calls:
                gen, kills, bottoms, writes = nodes[n]
                more_gen, _, more_bottoms, _ = deferred[n]
                writes |= {an._reps[i] for i in later[n]}
                nodes[n] = (gen | more_gen, kills, bottoms | more_bottoms, writes)
            ours = nodes, control, seeds
            assert ours == decoded_table(ref.spec(mid, res.summaries), ref.reps), (seed, mid)


def reference_exit_facts(an, mid, summaries):
    """The method's exit facts by round robin over the node equations that
    `method_facts` solves (`round_robin`). The entry also seeds every field
    and array representative that a summary imported at an `ast.Call` node
    names, which the footprint must already hold."""
    spec = an.spec(mid, summaries)
    g = spec.cfg
    sym = an.sym
    heap = {
        an.rep_id(rep)
        for s in g.nodes
        if type(s) is ast.Call
        for target in sym.resolve_call(sym.methods[mid], s)
        if not target.extern
        for fact in an.decode(summaries[target.id])
        for rep in fact[:2]
        if not isinstance(rep, (Scalar, Bottom))
    }
    return round_robin(spec, {i: 1 << (i + SHIFT) for i in set(spec.seeds) | heap})


@pytest.mark.parametrize("policy", ("basic", "summary"))
@pytest.mark.parametrize("profile", ("census", "heap", "loops"))
def test_method_fixpoint_equals_a_round_robin_reference(profile, policy, monkeypatch):
    visits = []
    original = transfer

    def counting(node, *args):
        visits.append(node)
        return original(node, *args)

    monkeypatch.setattr("cook.analysis.transfer", counting)
    loop_free = 0
    for seed in range(3):
        params = GenParams(**PROFILES[profile])
        model = ProgramModel(generate_program(seed, params), nested_policy=policy)
        tmodel = transformed_model(model)
        an = Analyzer(tmodel)
        final = {m: an.encode(f) for m, f in analyze_program(tmodel).summaries.items()}
        empty = {m: {} for m in tmodel.methods}
        for mid, mm in tmodel.methods.items():
            for summaries in (empty, final):
                visits.clear()
                facts = an.method_facts(mid, summaries)
                table = an.spec(mid, summaries).nodes
                assert all(node in table for node in visits), (seed, mid)
                assert facts == reference_exit_facts(an, mid, summaries), (seed, mid)
                if not find_loops(mm.cfg):
                    # in reverse postorder every predecessor comes first
                    assert len(visits) == len(mm.cfg.nodes), (seed, mid)
                    loop_free += 1
    assert loop_free >= 6, loop_free


# `get(o, y)` dispatches to `A.get`, which reads a field, and to `B.get`,
# whose divergent API call the rewrite makes a bottom assignment
TWO_TARGETS = """
class A { f: int; }
class B extends A {}
extern method api(): int;
method A.get(self: A, k: int): int { var t: int; t := self.f; return t; }
method B.get(self: B, k: int): int { var t: int; t := api(); t := t + k; return t; }
method use(o: A, y: int): int { var x: int; x := get(o, y); return x; }
"""


def test_a_call_with_two_targets_composes_each_summary_through_its_own_frame():
    tmodel = transformed_model(ProgramModel(*load(TWO_TARGETS)))
    sym = tmodel.symbols
    (call,) = [s for s in tmodel.methods["use"].cfg.nodes if type(s) is ast.Call]
    assert [t.id for t in sym.resolve_call(sym.methods["use"], call)] == ["A.get", "B.get"]
    res = analyze_program(tmodel)
    o, y, x, ret = (Scalar("use", n) for n in ("o", "y", "x", "ret"))
    field = TypeField("A", "f")

    def composed(callee):
        """The callee's summary through the call's substitution."""
        subst = {Scalar(callee, "self"): o, Scalar(callee, "k"): y, Scalar(callee, "ret"): x}
        return {(subst.get(d, d), subst.get(s, s), c) for d, s, c in res.summaries[callee]}

    via_a, via_b = composed("A.get"), composed("B.get")
    assert via_a == {(x, field, None), (x, o, None), (field, field, None)}
    assert via_b == {(x, BOTTOM, ast.DivergenceCause.API), (x, y, None)}
    entry = {(o, o, None), (y, y, None), (field, field, None)}
    returned = {(ret, src, cause) for dep, src, cause in via_a | via_b if dep == x}
    assert res.facts["use"] == entry | via_a | via_b | returned
    an = Analyzer(tmodel)
    final = {mid: an.encode(facts) for mid, facts in res.summaries.items()}
    for mid in ("A.get", "B.get"):  # the callees' tables first
        an.spec(mid, final)
    assert an.decode(reference_exit_facts(an, "use", final)) == res.facts["use"]


# the body's first statement kills `i`, the counter the loop condition reads,
# and writes it back with the sources it already had, so the second pass over
# the header changes nothing that reaches `x := x + one`, only its control
# mask; the bound is a constant, so the oracle proves the loop for both strides
BRANCH_GAINS_SOURCES = """
extern method api(): int;
method m(i: int, n: int, z: int): int {
  var x: int; var one: int; var two: int; var a: int; var lim: int;
  one := 1; two := 2; lim := 1000;
  a := api();
  x := i + n;
  while i < lim do {
    if a < z then { i := i + one; } else { i := i + two; }
    x := x + one;
  }
  return x;
}
"""


def test_a_branch_that_gains_sources_revisits_the_nodes_it_governs(run_pipeline):
    an, facts = method_facts_of(BRANCH_GAINS_SOURCES, "m")
    summaries = {"m": {}}
    assert an.encode(facts) == reference_exit_facts(an, "m", summaries)
    ret = Scalar("m", "ret")
    # the trip count depends on `a`, the API's result, through the inner branch
    assert (ret, BOTTOM, ast.DivergenceCause.API) in facts
    assert (ret, Scalar("m", "z"), None) in facts
    _, res = run_pipeline(BRANCH_GAINS_SOURCES, swamp_test="post")
    assert res.swamp == frozenset({"m"})


def test_safe_list_growth_never_shrinks_islands(run_pipeline):
    src_parts = ["extern method e{k}(): int;".format(k=k) for k in range(3)]
    body = """
method m{k}(): int {{
  var r: int;
  r := e{k}();
  return r;
}}
"""
    src = "\n".join(src_parts) + "".join(body.format(k=k) for k in range(3))

    chain = [frozenset(), frozenset({"e0"}), frozenset({"e0", "e1"}), frozenset({"e0", "e1", "e2"})]
    last = None
    for safe in chain:
        _, res = run_pipeline(src, safe=safe)
        if last is not None:
            assert last <= res.st
        last = res.st
    assert last == frozenset({"m0", "m1", "m2"})


def check_reified_taints(p, model, rng, stores, where=()) -> int:
    """Runs `stores` seeded reified runs of every method of `p` and checks
    their taints: each has a bottom fact in the method's facts, and a method
    the `post` placement calls an island taints nothing its caller sees (its
    `ret` and the heap). Returns the number of runs that did not fault."""
    tmodel = transformed_model(model)
    res = analyze_program(tmodel)
    post_islands = analyze_program(tmodel, swamp_test="post").st
    dec = model.decisions()
    checked = 0
    for mid in model.methods:
        landfall_bottoms = {f[0] for f in res.facts[mid] if isinstance(f[1], Bottom)}
        for k in range(stores):
            store = random_store(model.symbols, model.aliases, mid, rng)
            try:
                out = run_reified(p, model.symbols, model.aliases, mid, store, dec)
            except InterpFault:
                continue
            taints = collect_taints(out, model.aliases, mid)
            assert taints <= landfall_bottoms, (*where, mid, taints - landfall_bottoms)
            if mid in post_islands:
                seen = {r for r in taints if not isinstance(r, Scalar) or r.name == RET}
                assert not seen, (*where, mid, seen)
            checked += 1
    return checked


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
            checked += check_reified_taints(p, model, rng, 3, (loop, policy, seed))
        assert checked >= at_least, (loop, policy, checked)


# the ROADMAP's 200-method baseline program and a heap and dispatch program of
# the same size, with the `islands` workload's profile
PROGRAM_SCALE = (
    dict(CENSUS_LIKE, methods=200, classes=4),
    dict(methods=200, classes=4, loop=0.15, heap=0.6, virtual=0.5, max_depth=1),
)


@pytest.mark.parametrize("params", PROGRAM_SCALE, ids=("baseline", "islands"))
def test_reified_taints_within_analysis_facts_at_program_scale(params):
    p = generate_program(0, GenParams(**params))
    checked = check_reified_taints(p, ProgramModel(p), random.Random(3), 2)
    assert checked >= 360, checked


# the benchmark's three profiles, with each one's nested-loop policy and seeds
HEAP_ID_PROFILES = (
    (profiles.CENSUS, "basic", range(3)),
    (profiles.ISLANDS, "basic", range(2)),
    (profiles.LOOP_DENSE, "summary", range(10)),
)


@pytest.mark.parametrize(
    "params, policy, seeds", HEAP_ID_PROFILES, ids=("census", "islands", "loops")
)
def test_the_heap_is_numbered_once_below_every_frame(params, policy, seeds):
    """Every field and array partition has the alias analysis's heap id, the
    same under the first and the rewritten model; the heap ids are 0 to
    H - 1, and no fact has a heap dependent or source numbered at H or
    above, nor a frame one below."""
    fields = parts = heap_bits = 0
    for seed in seeds:
        model = ProgramModel(generate_program(seed, GenParams(**params)), nested_policy=policy)
        tmodel = transformed_model(model)
        heap = [TypeField(c.name, f.name) for c in model.program.classes for f in c.fields]
        fields += len(heap)
        heap += [ArrayPart(k) for k in range(len(model.aliases._part_ids))]
        parts += len(heap) - fields
        ids = [Analyzer(model).rep_id(rep) for rep in heap]
        assert sorted(ids) == list(range(len(model.aliases.heap)))
        assert [model.aliases.heap_id(rep) for rep in heap] == ids
        assert [Analyzer(tmodel).rep_id(rep) for rep in heap] == ids
        result = analyze_program(tmodel)
        reps = result.facts._reps
        for table in (result.facts, result.summaries):
            for mid in table:
                for dep, mask in table.masks(mid).items():
                    for i in (dep, *(b - SHIFT for b in set_bits(mask) if b >= SHIFT)):
                        assert (i < len(ids)) == (type(reps[i]) is not Scalar), (seed, i)
                        heap_bits += i < len(ids)
    assert fields and parts and heap_bits


def test_a_program_without_a_heap_numbers_its_first_frame_slot_zero():
    model = ProgramModel(*load("method m(a: int): int { var x: int; x := a; return x; }"))
    assert model.aliases.heap == []
    assert Analyzer(model).frame("m") == {"a": 0, "x": 1, RET: 2}
