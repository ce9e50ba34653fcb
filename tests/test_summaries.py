"""Transition composition, term-type classification, DF test, and summary
exactness against the interpreter."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from cook.aliases import AliasAnalysis
from cook.cfg import build_cfg, find_loops
from cook.errors import NoInductionVariable, NotDependencyFree
from cook.generator import GenParams, generate_df_loop, generate_program
from cook.interp import ArrVal, Outcome, run_concrete
from cook.lang import ast, load, pretty
from cook.pipeline import SUMMARY, ProgramModel
from cook.summaries import (
    GuardAtom,
    LoopSummary,
    Transition,
    classify_terms,
    cycle_formula,
    df_check,
    num_expr,
    path_formula,
    step_transition,
    summarize,
    var_expr,
)
from cook.termination import (
    OpaqueUpdate,
    counter_strides,
    dominating_consts,
    extract_cycles,
    method_consts,
)
from profiles import CENSUS, ISLANDS, LOOP_DENSE
from reference_summaries import (
    IDENTITY,
    compose,
    eval_array,
    eval_counter,
    exit_value,
    num_count,
)


def loop_context(src: str):
    p, sym = load(src)
    m = next(m for m in p.methods if not m.extern)
    g = build_cfg(m)
    loops = find_loops(g)
    assert len(loops) == 1
    cs = extract_cycles(loops[0], g, loops)
    pre = dominating_consts(g, loops[0], method_consts(g))
    return p, sym, m, cs, tuple(cycle_formula(c, pre, m.id) for c in cs.cycles)


# -- composition ---------------------------------------------------------------


def test_compose_substitutes_updates():
    t1 = Transition((), (("x", ("bin", "+", var_expr("x"), num_expr(1))),))
    t2 = Transition((), (("y", var_expr("x")),))
    c = compose(t1, t2)
    u = c.update_map()
    assert u["y"] == ("bin", "+", var_expr("x"), num_expr(1))
    assert u["x"] == ("bin", "+", var_expr("x"), num_expr(1))
    assert c.guard == ()


def test_compose_identity_left_and_right():
    t = Transition(
        (GuardAtom(var_expr("i"), "<", var_expr("n")),),
        (("i", ("bin", "+", var_expr("i"), num_expr(1))),),
    )
    assert compose(IDENTITY, t) == t
    assert compose(t, IDENTITY) == t


def test_counted_loop_cycle_composes_to_single_formula(counted_loop):
    """Transitions through the loop body compose into one formula: guard i<n
    with updates i'=i+1 and j'=j+3."""
    p, sym, m, cs, formulas = loop_context(counted_loop)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    (formula,) = tt.formulas
    assert [a.render() for a in formula.guard] == ["i < n"]
    u = formula.update_map()
    assert u["i"] == ("bin", "+", var_expr("i"), num_expr(1))
    assert u["j"] == ("bin", "+", var_expr("j"), num_expr(3))


def test_pc_labelled_transitions_compose_in_sequence():
    guard = Transition((GuardAtom(var_expr("i"), "<", var_expr("n")),), ())
    inc_i = Transition((), (("i", ("bin", "+", var_expr("i"), num_expr(1))),))
    inc_j = Transition((), (("j", ("bin", "+", var_expr("j"), num_expr(3))),))
    formula = path_formula([guard, inc_i, inc_j])
    assert [a.render() for a in formula.guard] == ["i < n"]
    assert formula.update_map()["j"] == ("bin", "+", var_expr("j"), num_expr(3))


def test_guard_after_update_constrains_updated_value():
    inc = Transition((), (("x", ("bin", "+", var_expr("x"), num_expr(1))),))
    test = Transition((GuardAtom(var_expr("x"), "<", var_expr("n")),), ())
    c = compose(inc, test)
    (atom,) = c.guard
    assert atom.left == ("bin", "+", var_expr("x"), num_expr(1))


# the generator profiles of the benchmark's three workloads
FOLD_PROFILES = {"census": CENSUS, "islands": ISLANDS, "loops": LOOP_DENSE}


def test_one_pass_path_formula_equals_the_pairwise_compose_fold():
    """Every closing cycle of every judged loop, under the summary policy so
    inner loops are stepped over too, gives the same transition from
    `path_formula` as from folding its steps with `compose`."""
    seen = {"cycles": 0, "guards": 0, "arrays": 0, "fields": 0, "opaque": 0}
    for profile, params in FOLD_PROFILES.items():
        cycles = seen["cycles"]
        for seed in range(12):
            model = ProgramModel(generate_program(seed, GenParams(**params)), nested_policy=SUMMARY)
            for mid, mm in model.methods.items():
                consts = method_consts(mm.cfg) if mm.loops else None
                for lm in mm.loops:
                    if lm.cycles is None:
                        continue
                    pre = dominating_consts(mm.cfg, lm.info, consts)
                    for cycle in lm.cycles.cycles:
                        steps = [step_transition(st, pre, mid) for st in cycle]
                        folded = reduce(compose, steps, IDENTITY)
                        assert path_formula(steps) == folded, (profile, seed, mid, lm.info.header)
                        seen["cycles"] += 1
                        seen["guards"] += len(folded.guard) > 1
                        seen["arrays"] += bool(folded.arrays)
                        seen["fields"] += bool(folded.field_writes)
                        seen["opaque"] += any(isinstance(st, OpaqueUpdate) for st in cycle)
        assert seen["cycles"] - cycles >= 100, (profile, seen)
    assert min(seen.values()) >= 20, seen


# -- classification ---------------------------------------------------------


def test_classification_of_counted_loop(counted_loop):
    p, sym, m, cs, formulas = loop_context(counted_loop)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    assert tt.counters == {"i": (1,), "j": (3,)}
    assert tt.induction == "i" and not tt.synthetic_induction
    assert tt.write_arrays == frozenset()
    assert [a.render() for a in tt.induction_guards] == ["i < n"]
    assert df_check(cs, tt).dependency_free


def test_invariant_write_array_classified():
    src = """
method m(a: int[], n: int): int {
  var i: int; var one: int; var z: int;
  one := 1; z := 7; i := 0;
  while i < n do {
    a[i] := z;
    i := i + one;
  }
  return i;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    assert tt.write_arrays == frozenset({"a"})
    assert df_check(cs, tt).dependency_free


def test_multiplicative_update_violates_df():
    src = """
method m(n: int): int {
  var i: int; var x: int; var one: int; var two: int;
  one := 1; two := 2; x := 1; i := 0;
  while i < n do { x := x * two; i := i + one; }
  return x;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    assert "x" not in tt.counters
    verdict = df_check(cs, tt)
    assert not verdict.dependency_free and verdict.violation == 1


def test_guard_on_counter_violates_df():
    src = """
method m(n: int, t: int): int {
  var i: int; var j: int; var one: int;
  one := 1; i := 0; j := 0;
  while i < n do {
    if j < t then { j := j + one; } else { j := j + one; }
    i := i + one;
  }
  return j;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    verdict = df_check(cs, tt)
    assert not verdict.dependency_free and verdict.violation == 3


def test_array_read_into_scalar_violates_df():
    src = """
method m(a: int[], n: int, t: int): int {
  var i: int; var s: int; var one: int; var c: int;
  one := 1; c := 5; i := 0; s := 0;
  while i < n do {
    if i < t then { a[i] := c; } else { s := a[i]; }
    i := i + one;
  }
  return s;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    verdict = df_check(cs, tt)
    assert not verdict.dependency_free and verdict.violation == 1


def test_non_induction_index_violates_df():
    src = """
method m(a: int[], n: int): int {
  var i: int; var k: int; var one: int; var c: int;
  one := 1; c := 3; i := 0; k := 0;
  while i < n do {
    a[k] := c;
    i := i + one;
  }
  return i;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    verdict = df_check(cs, tt)
    assert not verdict.dependency_free and verdict.violation == 2


def test_no_induction_variable_raises():
    src = """
method m(n: int): int {
  var i: int; var two: int;
  two := 2; i := 0;
  while i < n do { i := i + two; }
  return i;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))  # normalizes to a synthetic unit counter
    assert tt.synthetic_induction
    src2 = """
method m(o: A): int {
  var i: int; var zero: int;
  zero := 0; i := 0;
  while i != zero do { o.f := i; }
  return i;
}
class A { f: int; }
"""
    p2, sym2, m2, cs2, formulas2 = loop_context(src2)
    with pytest.raises(NoInductionVariable):
        classify_terms(cs2, formulas2, counter_strides(formulas2))


def test_summarize_requires_df():
    src = """
method m(n: int): int {
  var i: int; var x: int; var one: int; var two: int;
  one := 1; two := 2; x := 1; i := 0;
  while i < n do { x := x * two; i := i + one; }
  return x;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    with pytest.raises(NotDependencyFree):
        summarize(cs, tt)


# -- num and evaluation -------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
def test_num_counts_satisfying_integers(k, l, n):
    guard = (GuardAtom(var_expr("i"), "<", var_expr("n")),)
    expected = sum(1 for x in range(k, l + 1) if x < n)
    assert num_count(guard, {"n": n}, "i", k, l) == expected


def test_counter_closed_form_matches_hand_computation(counted_loop):
    p, sym, m, cs, formulas = loop_context(counted_loop)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    s = summarize(cs, tt)
    for n in (0, 1, 5, 17):
        env = {"i": 0, "j": 0, "n": n}
        ie = exit_value(s, env, 0)
        assert ie == max(0, n)
        assert eval_counter(s, "j", env, 0, ie) == 3 * n


def test_unconditional_counter_is_interval_length():
    src = """
method m(n: int): int {
  var i: int; var mtr: int; var one: int; var five: int;
  one := 1; five := 5; i := 0; mtr := 2;
  while i < n do {
    mtr := mtr + five;
    i := i + one;
  }
  return mtr;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    s = summarize(cs, tt)
    for n in (0, 3, 11):
        env = {"i": 0, "mtr": 2, "n": n}
        ie = exit_value(s, env, 0)
        assert eval_counter(s, "mtr", env, 0, ie) == 2 + 5 * max(0, n)


def test_le_bound_at_int64_max_never_exits():
    src = """
method m(n: int): int {
  var i: int; var one: int;
  one := 1; i := 0;
  while i <= n do { i := i + one; }
  return i;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    s = summarize(cs, classify_terms(cs, formulas, counter_strides(formulas)))
    assert s.closable and s.bounds == (("<=", var_expr("n")),)
    assert exit_value(s, {"i": 0, "n": 5}, 0) == 6
    # i <= INT64_MAX holds for every 64-bit i, so there is no exit value,
    # least of all INT64_MAX + 1
    assert exit_value(s, {"i": 0, "n": ast.INT64_MAX}, ast.INT64_MAX - 1) is None
    assert exit_value(s, {"i": 0, "n": ast.INT64_MAX - 1}, 0) == ast.INT64_MAX


def interp_post_state(src, mid, store_vals, sym_al=None):
    p, sym = load(src)
    al = AliasAnalysis(p, sym)
    m = sym.methods[mid]
    args = [store_vals[f.name] for f in m.formals]
    out = run_concrete(p, sym, al, mid, args)
    assert out.kind == Outcome.FINISHED
    return out


# 64-bit edge values, drawn next to small ones for array cells and for
# values that only guard, never bound, a loop
EDGES = (ast.INT64_MIN, ast.INT64_MAX, -1, 0)


def small_or_edge(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice(EDGES) if rng.random() < 0.3 else rng.randint(lo, hi)


def test_two_cycle_array_fill_matches_interpreter():
    src = """
method fill(a: int[], n: int, mid: int): int {
  var i: int; var one: int; var c1: int; var c2: int;
  one := 1; c1 := 7; c2 := 9; i := 0;
  while i < n do {
    if i < mid then { a[i] := c1; } else { a[i] := c2; }
    i := i + one;
  }
  return i;
}
"""
    p, sym, m, cs, formulas = loop_context(src)
    tt = classify_terms(cs, formulas, counter_strides(formulas))
    s = summarize(cs, tt)
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(0, 8)
        midv = small_or_edge(rng, -2, 10)
        cells = [small_or_edge(rng, -5, 5) for _ in range(8)]
        arr = ArrVal("int", list(cells), 0)
        out = interp_post_state(src, "fill", {"a": arr, "n": n, "mid": midv})
        env = {"i": 0, "n": n, "mid": midv, "c1": 7, "c2": 9}
        ie = exit_value(s, env, 0)
        predicted = eval_array(s, "a", cells, env, 0, ie)
        assert predicted == arr.cells


def test_generated_df_loops_match_interpreter_exactly():
    rng = random.Random(4)
    checked = 0
    for seed in range(40):
        src, mid = generate_df_loop(seed, max_bound=20)
        p, sym = load(src)
        al = AliasAnalysis(p, sym)
        m = sym.methods[mid]
        g = build_cfg(m)
        loops = find_loops(g)
        cs = extract_cycles(loops[0], g, loops)
        pre = dominating_consts(g, loops[0], method_consts(g))
        formulas = tuple(cycle_formula(c, pre, mid) for c in cs.cycles)
        tt = classify_terms(cs, formulas, counter_strides(formulas))
        verdict = df_check(cs, tt)
        assert verdict.dependency_free, (seed, verdict.render())
        s = summarize(cs, tt)
        cells = [small_or_edge(rng, -9, 9) for _ in range(64)]
        arr = ArrVal("int", list(cells), al.partition_of(mid, "a"))
        out = interp_post_state(src, mid, {"a": arr})
        env = {name: 0 for name in sym.var_types[mid]}
        # replay the straight-line prelude to get loop-entry values
        for st_ in m.body:
            if isinstance(st_, ast.ConstAssign):
                env[st_.target] = st_.value
            elif isinstance(st_, ast.While):
                break
        i0 = env["i"]
        ie = exit_value(s, env, i0)
        assert ie is not None
        for var in tt.counters:
            if var == tt.induction:
                continue
            assert eval_counter(s, var, env, i0, ie) == _final_scalar(p, sym, al, mid, arr, var), (
                seed,
                var,
            )
        if "a" in tt.write_arrays:
            predicted = eval_array(s, "a", cells, env, i0, ie)
            assert predicted == arr.cells, seed
        checked += 1
    assert checked == 40


def _final_scalar(p, sym, al, mid, arr, var):
    """Re-run with an instrumented return to observe a loop counter: the
    generated method's counters live in locals, so read them off the final
    frame via a concrete run that returns the variable."""
    m = sym.methods[mid]
    # rebuild source with `return var;`
    new_body = _swap_return(m.body, var)
    new_m = ast.Method(m.name, m.owner, m.formals, m.locals, m.return_type, new_body)
    p2 = ast.Program(p.classes, p.interfaces, (new_m,))
    text = pretty(p2)
    p3, sym3 = load(text)
    al3 = AliasAnalysis(p3, sym3)
    out = run_concrete(p3, sym3, al3, mid, [ArrVal("int", list(arr.cells), 0)])
    assert out.kind == Outcome.FINISHED
    return out.value


def _swap_return(body, var):
    assert isinstance(body[-1], ast.Return)
    return body[:-1] + (ast.Return(var),)


def test_overlapping_guards_abort_array_evaluation():
    s_guards = (
        ((GuardAtom(var_expr("i"), "<", var_expr("n")),), num_expr(1)),
        ((GuardAtom(var_expr("i"), "<=", var_expr("n")),), num_expr(2)),
    )
    s = LoopSummary(
        induction="i",
        synthetic_induction=False,
        counter_terms=(),
        array_cases=(("a", s_guards),),
        bounds=(("<", var_expr("n")),),
        inv_atoms=(),
        closable=True,
    )
    with pytest.raises(NotDependencyFree):
        eval_array(s, "a", [0] * 8, {"n": 4}, 0, 4)
