"""Cycle extraction and the termination oracle.

Soundness is checked against the interpreter: every loop the oracle judges
terminating must exit within the fuel budget on random divergence-free
stores — a fuel exhaustion is a hard failure, never a skip.
"""

import random

import pytest

from cook.aliases import AliasAnalysis
from cook.cfg import build_cfg, find_loops
from cook.errors import NestedLoopError, PathExplosionError
from cook.generator import GenParams, generate_program
from cook.interp import Outcome, random_store, run_concrete
from cook.lang import ast, load, parse
from cook.pipeline import ProgramModel
from cook.summaries import cycle_formula
from cook.termination import (
    Cycle,
    OpaqueUpdate,
    check_termination,
    dominating_consts,
    extract_cycles,
)


def loop_of(src: str, method=None):
    p = parse(src)
    m = next(m for m in p.methods if not m.extern and (method is None or m.id == method))
    g = build_cfg(m)
    loops = find_loops(g)
    assert len(loops) == 1
    return p, m, g, loops


def closing_formulas(cs, g, loop, m):
    pre = dominating_consts(g, loop)
    return tuple(cycle_formula(c, pre, m.id) for c in cs.cycles)


def test_single_cycle_counted_loop(counted_loop):
    p, m, g, loops = loop_of(counted_loop)
    cs = extract_cycles(loops[0], g, loops)
    assert len(cs.cycles) == 1 and not cs.exits
    (c,) = cs.cycles
    assert [a.render() for a in c.guard] == ["i < n"]
    assert [type(u).__name__ for u in c.updates] == ["BinaryAssign", "BinaryAssign"]


def test_branch_body_yields_complementary_cycles():
    src = """
method m(n: int, t: int): int {
  var i: int; var a: int; var b: int; var one: int;
  one := 1; i := 0; a := 0; b := 0;
  while i < n do {
    if a < t then { a := a + one; } else { b := b + one; }
    i := i + one;
  }
  return i;
}
"""
    p, m, g, loops = loop_of(src)
    cs = extract_cycles(loops[0], g, loops)
    assert len(cs.cycles) == 2
    atoms = {tuple(a.render() for a in c.guard) for c in cs.cycles}
    assert atoms == {("i < n", "a < t"), ("i < n", "a >= t")}


@pytest.mark.parametrize("branches", [1, 2, 3])
def test_cycle_count_doubles_per_branch(branches):
    body = ["var i: int;", "var one: int;", "var x: int;"]
    decl = "".join(body)
    inner = "x := x + one;"
    for k in range(branches):
        inner = f"if x < i then {{ {inner} }} else {{ {inner} }}"
    src = f"""
method m(n: int): int {{
  {decl}
  one := 1; i := 0; x := 0;
  while i < n do {{
    {inner}
    i := i + one;
  }}
  return x;
}}
"""
    p, m, g, loops = loop_of(src)
    cs = extract_cycles(loops[0], g, loops)
    assert len(cs.cycles) == 2**branches


def test_path_explosion_raises():
    inner = "x := x + one;"
    for k in range(8):
        inner = f"if x < i then {{ {inner} }} else {{ {inner} }}"
    src = f"""
method m(n: int): int {{
  var i: int; var one: int; var x: int;
  one := 1; i := 0; x := 0;
  while i < n do {{
    {inner}
    i := i + one;
  }}
  return x;
}}
"""
    p, m, g, loops = loop_of(src)
    with pytest.raises(PathExplosionError):
        extract_cycles(loops[0], g, loops)


def test_nested_loop_raises_under_basic_policy():
    src = """
method m(n: int): int {
  var i: int; var j: int; var one: int;
  one := 1; i := 0;
  while i < n do {
    j := 0;
    while j < n do { j := j + one; }
    i := i + one;
  }
  return i;
}
"""
    p = parse(src)
    m = p.methods[0]
    g = build_cfg(m)
    loops = find_loops(g)
    outer = next(l for l in loops if l.depth == 1)
    with pytest.raises(NestedLoopError):
        extract_cycles(outer, g, loops)


def test_every_inner_loop_needs_a_stand_in():
    src = """
method m(n: int): int {
  var i: int; var j: int; var k: int; var one: int;
  one := 1; i := 0;
  while i < n do {
    j := 0;
    while j < n do { j := j + one; }
    k := 0;
    while k < n do { k := k + one; }
    i := i + one;
  }
  return i;
}
"""
    p = parse(src)
    g = build_cfg(p.methods[0])
    loops = find_loops(g)
    outer = next(l for l in loops if l.depth == 1)
    first, second = sorted(l.header for l in loops if l.parent == outer.id)
    with pytest.raises(NestedLoopError, match=rf"inner headers \[{second}\]"):
        extract_cycles(outer, g, loops, {first: OpaqueUpdate(frozenset({"j"}))})
    cs = extract_cycles(
        outer,
        g,
        loops,
        {first: OpaqueUpdate(frozenset({"j"})), second: OpaqueUpdate(frozenset({"k"}))},
    )
    (cycle,) = cs.cycles
    assert [s.names for s in cycle.steps if isinstance(s, OpaqueUpdate)] == [{"j"}, {"k"}]
    assert {"i", "j", "k"} <= cs.written_names
    v = check_termination(cs, closing_formulas(cs, g, outer, p.methods[0]))
    assert v.terminates and v.counter == "i"


def test_return_inside_loop_is_an_exit_path():
    src = """
method m(n: int, t: int): int {
  var i: int; var one: int;
  one := 1; i := 0;
  while i < n do {
    if i == t then { return i; }
    i := i + one;
  }
  return i;
}
"""
    p, m, g, loops = loop_of(src)
    cs = extract_cycles(loops[0], g, loops)
    assert len(cs.cycles) == 1 and len(cs.exits) == 1
    v = check_termination(cs, closing_formulas(cs, g, loops[0], m))
    assert v.terminates and v.counter == "i"


def verdict_for(src: str):
    p, m, g, loops = loop_of(src)
    cs = extract_cycles(loops[0], g, loops)
    return check_termination(cs, closing_formulas(cs, g, loops[0], m))


def test_counted_loop_terminates(counted_loop):
    v = verdict_for(counted_loop)
    assert v.terminates and (v.counter, v.strides, v.bound) == ("i", (1,), "n")


def test_opaque_condition_unknown():
    v = verdict_for(
        """
method bar(lo: int, hi: int): int {
  var y: int; var one: int;
  y := 0; one := 1;
  while lo < hi do { y := y + one; }
  return y;
}
"""
    )
    assert not v.terminates


def test_decreasing_against_upper_bound_unknown():
    v = verdict_for(
        """
method m(n: int): int {
  var i: int; var one: int;
  one := 1; i := 0;
  while i < n do { i := i - one; }
  return i;
}
"""
    )
    assert not v.terminates


def test_decreasing_with_lower_bound_terminates():
    v = verdict_for(
        """
method m(n: int): int {
  var i: int; var ten: int; var one: int;
  one := 1; ten := 10; i := ten;
  while i > n do { i := i - one; }
  return i;
}
"""
    )
    assert v.terminates and v.counter == "i"


def test_stride_zero_is_not_progress():
    v = verdict_for(
        """
method m(n: int): int {
  var i: int; var zero: int;
  zero := 0; i := 0;
  while i < n do { i := i + zero; }
  return i;
}
"""
    )
    assert not v.terminates


@pytest.mark.parametrize(
    "decls, body, stride",
    [
        ("var z: int; var s: int; z := 0;", "s := !z; i := i + s;", (1,)),
        (
            "var six: int; var three: int; var q: int; six := 6; three := 3;",
            "q := six / three; i := i + q;",
            (2,),
        ),
    ],
)
def test_stride_folds_through_not_and_division(decls, body, stride):
    v = verdict_for(
        f"""
method m(n: int): int {{
  var i: int; {decls} i := 0;
  while i < n do {{ {body} }}
  return i;
}}
"""
    )
    assert v.terminates and (v.counter, v.strides, v.bound) == ("i", stride, "n")


def test_bound_written_in_loop_rejected():
    v = verdict_for(
        """
method m(n: int): int {
  var i: int; var one: int;
  one := 1; i := 0;
  while i < n do { i := i + one; n := n + one; }
  return i;
}
"""
    )
    assert not v.terminates


def test_guard_on_mid_cycle_opaque_value_rejected():
    # j's net effect is entry+1, but the guard tests an opaque intermediate
    v = verdict_for(
        """
method m(p: int, q: int, b: int, a: int[], z: int): int {
  var j: int; var saved: int; var one: int;
  one := 1; j := 0;
  while p != q do {
    saved := j;
    j := a[z];
    if j < b then { saved := saved; }
    j := saved + one;
  }
  return j;
}
"""
    )
    assert not v.terminates


def test_verdict_ignores_untouched_statements():
    base = """
method m(n: int, o: int[]): int {{
  var i: int; var one: int; var extra: int; var k: int;
  one := 1; i := 0; extra := 0; k := 0;
  while i < n do {{
    {filler}
    i := i + one;
  }}
  return i;
}}
"""
    plain = verdict_for(base.format(filler="extra := extra + one;"))
    noisy = verdict_for(base.format(filler="extra := extra + one; k := o[extra]; k := k + k;"))
    assert plain.terminates and noisy.terminates
    assert (plain.counter, plain.bound) == (noisy.counter, noisy.bound)


def test_cycle_guards_mutually_exclusive_at_runtime():
    rng = random.Random(3)
    src = """
method m(n: int, t: int): int {
  var i: int; var a: int; var b: int; var one: int;
  one := 1; i := 0; a := 0; b := 0;
  while i < n do {
    if a < t then { a := a + one; } else { b := b + one; }
    i := i + one;
  }
  return i;
}
"""
    p, m, g, loops = loop_of(src)
    cs = extract_cycles(loops[0], g, loops)
    for _ in range(200):
        env = {v: rng.randint(-10, 10) for v in ("i", "n", "t", "a", "b", "one")}
        if not (env["i"] < env["n"]):
            continue
        holding = [
            c
            for c in cs.cycles
            if all(_eval_atom(atom, env) for atom in c.guard)
        ]
        assert len(holding) == 1


def _eval_atom(atom, env):
    a, b = env[atom.left], env[atom.right]
    return {
        "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b, "==": a == b, "!=": a != b
    }[atom.op]


def test_terminating_verdicts_are_sound_on_generated_loops():
    """Loops judged terminating must exit within fuel on random stores."""
    rng = random.Random(11)
    loops_checked = 0
    for seed in range(120):
        p = generate_program(
            seed,
            GenParams(methods=2, loop=0.45, branch=0.3, call=0.0, extern=0.0,
                      recursion=0.0, heap=0.2, stmts=(3, 7)),
        )
        model = ProgramModel(p)
        for mid, mm in model.methods.items():
            own_loops = mm.loops
            if not own_loops or not all(l.verdict.terminates for l in own_loops):
                continue
            for _ in range(5):
                store = random_store(model.symbols, model.aliases, mid, rng)
                args = [store.values[f.name] for f in model.symbols.methods[mid].formals]
                out = run_concrete(p, model.symbols, model.aliases, mid, args)
                assert out.kind != Outcome.FUEL_EXHAUSTED, (seed, mid)
            loops_checked += len(own_loops)
    assert loops_checked >= 60
