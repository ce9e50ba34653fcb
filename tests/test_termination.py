"""Cycle extraction and the termination oracle.

Soundness is checked against the interpreter: every loop the oracle judges
terminating must exit within the fuel budget on random divergence-free
stores — a fuel exhaustion is a hard failure, never a skip.
"""

import hashlib
import random

import pytest

from cook.aliases import AliasAnalysis
from cook.cfg import build_cfg, find_loops
from cook.errors import NestedLoopError, PathExplosionError
from cook.generator import GenParams, generate_df_loop, generate_program
from cook.interp import Outcome, random_store, run_concrete
from cook.lang import ast, load, parse
from cook.pipeline import ProgramModel
from cook.representatives import Scalar
from cook.summaries import cycle_formula
from cook.termination import (
    OpaqueUpdate,
    check_termination,
    counter_strides,
    dominating_consts,
    extract_cycles,
    method_consts,
)
from profiles import CENSUS, LOOP_DENSE


def loop_of(src: str, method=None):
    p = parse(src)
    m = next(m for m in p.methods if not m.extern and (method is None or m.id == method))
    g = build_cfg(m)
    loops = find_loops(g)
    assert len(loops) == 1
    return p, m, g, loops


def closing_formulas(cs, g, loop, m):
    pre = dominating_consts(g, loop, method_consts(g))
    return tuple(cycle_formula(c, pre, m.id) for c in cs.cycles)


def test_single_cycle_counted_loop(counted_loop):
    p, m, g, loops = loop_of(counted_loop)
    cs = extract_cycles(loops[0], g, loops)
    assert len(cs.cycles) == 1 and not cs.exits
    (c,) = cs.cycles
    assert [type(s).__name__ for s in c] == ["Cond", "BinaryAssign", "BinaryAssign"]
    assert c[0].render() == "i < n"


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
    atoms = {tuple(s.render() for s in c if isinstance(s, ast.Cond)) for c in cs.cycles}
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
    assert [s.names for s in cycle if isinstance(s, OpaqueUpdate)] == [{"j"}, {"k"}]
    assert {"i", "j", "k"} <= cs.written_names
    formulas = closing_formulas(cs, g, outer, p.methods[0])
    v = check_termination(cs, formulas, counter_strides(formulas))
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
    assert len(cs.cycles) == 1 and cs.exits == 1
    formulas = closing_formulas(cs, g, loops[0], m)
    v = check_termination(cs, formulas, counter_strides(formulas))
    assert v.terminates and v.counter == "i"


def verdict_for(src: str):
    p, m, g, loops = loop_of(src)
    cs = extract_cycles(loops[0], g, loops)
    formulas = closing_formulas(cs, g, loops[0], m)
    return check_termination(cs, formulas, counter_strides(formulas))


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


# a stride of two needs a constant bound: against `n` it could step over
# INT64_MAX and wrap
@pytest.mark.parametrize(
    "decls, body, stride, limit, bound",
    [
        ("var z: int; var s: int; z := 0;", "s := !z; i := i + s;", (1,), "n", "n"),
        (
            "var six: int; var three: int; var q: int; var lim: int;"
            " six := 6; three := 3; lim := 1000;",
            "q := six / three; i := i + q;",
            (2,),
            "lim",
            "1000",
        ),
    ],
)
def test_stride_folds_through_not_and_division(decls, body, stride, limit, bound):
    v = verdict_for(
        f"""
method m(n: int): int {{
  var i: int; {decls} i := 0;
  while i < {limit} do {{ {body} }}
  return i;
}}
"""
    )
    assert v.terminates and (v.counter, v.strides, v.bound) == ("i", stride, bound)


# Loops that run forever from `args` because the counter wraps past
# INT64_MAX: a weak bound at INT64_MAX, a stride of two that steps over an
# odd bound, and cycles that alternately test `i` and `i + 1` against a
# constant, so the exit window of each lies where the other cycle tests.
WRAP_PROBES = {
    "weak-bound": (
        """
method m(i: int, n: int): int {
  var one: int;
  one := 1;
  while i <= n do { i := i + one; }
  return i;
}
""",
        [ast.INT64_MAX - 1, ast.INT64_MAX],
    ),
    "stride-two": (
        """
method m(i: int, n: int): int {
  var two: int;
  two := 2;
  while i < n do { i := i + two; }
  return i;
}
""",
        [ast.INT64_MAX - 1, ast.INT64_MAX],
    ),
    "tested-offset": (
        """
method m(i: int, t: int): int {
  var zero: int; var one: int; var c: int;
  zero := 0; one := 1; c := 9223372036854775806;
  while zero < one do {
    if t < one then {
      if i >= c then { return i; }
      i := i + one; i := i + one; t := one;
    } else {
      i := i + one;
      if i >= c then { return i; }
      i := i + one; t := zero;
    }
  }
  return i;
}
""",
        [ast.INT64_MAX - 2, 0],
    ),
}


@pytest.mark.parametrize("probe", WRAP_PROBES)
def test_a_counter_that_can_wrap_is_unproven(probe):
    src, args = WRAP_PROBES[probe]
    assert not verdict_for(src).terminates
    p, sym = load(src)
    out = run_concrete(p, sym, AliasAnalysis(p, sym), "m", args, fuel=10_000)
    assert out.kind == Outcome.FUEL_EXHAUSTED


# (relation, constant bound, stride, proven): a constant bound leaves room
# for the largest stride before the wrap point, or the loop is unproven
@pytest.mark.parametrize(
    "rel, bound, stride, proven",
    [
        ("<", ast.INT64_MAX, 1, True),
        ("<", ast.INT64_MAX, 2, False),
        ("<", ast.INT64_MAX - 1, 2, True),
        ("<=", ast.INT64_MAX - 1, 1, True),
        ("<=", ast.INT64_MAX, 1, False),
        (">", ast.INT64_MIN, -1, True),
        (">", ast.INT64_MIN, -2, False),
        (">=", ast.INT64_MIN + 2, -2, True),
        (">=", ast.INT64_MIN + 1, -2, False),
    ],
)
def test_a_constant_bound_needs_room_for_the_stride(rel, bound, stride, proven):
    v = verdict_for(
        f"""
method m(i: int): int {{
  var c: int; var d: int;
  c := {bound}; d := {stride};
  while i {rel} c do {{ i := i + d; }}
  return i;
}}
"""
    )
    assert v.terminates == proven
    if proven:
        assert (v.counter, v.strides, v.bound) == ("i", (stride,), str(bound))


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
            if all(_eval_atom(s, env) for s in c if isinstance(s, ast.Cond))
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


def defined_names(s, method_id: str) -> set[str]:
    """The frame scalars a CFG node's statement assigns, read off each
    statement form; a branch node's statement assigns nothing itself."""
    if s is None or isinstance(s, (ast.IfElse, ast.While, ast.FieldWrite, ast.ArrayWrite)):
        return set()
    if isinstance(s, ast.Return):
        return {"ret"}
    if isinstance(s, ast.BottomAssign):
        return {r.name for r in s.targets if isinstance(r, Scalar) and r.method == method_id}
    return {s.target}


def header_reachable_without(g, loop, removed: int) -> bool:
    seen, work = {g.entry}, [g.entry]
    while work:
        n = work.pop()
        if n == loop.header:
            return True
        for nxt in g.succs[n]:
            if nxt != removed and nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return False


def brute_dominating_consts(g, loop) -> dict[str, int]:
    """Names with one definition in the method, a non-null constant
    assignment outside the loop whose deletion cuts the header off entry."""
    defs: dict[str, list[int]] = {}
    for nid, node in enumerate(g.nodes):
        for name in defined_names(node.stmt, g.method_id):
            defs.setdefault(name, []).append(nid)
    out = {}
    for name, sites in defs.items():
        if len(sites) != 1:
            continue
        (nid,) = sites
        s = g.nodes[nid].stmt
        if not isinstance(s, ast.ConstAssign) or s.value is None or nid in loop.body:
            continue
        if not header_reachable_without(g, loop, nid):
            out[name] = s.value
    return out


def read_names(s) -> set[str]:
    """The names a CFG node's statement reads, read off each statement form;
    a branch node's statement reads the two names of its condition."""
    if isinstance(s, (ast.IfElse, ast.While)):
        return {s.cond.left, s.cond.right}
    if isinstance(s, ast.Call):
        return set(s.actuals)
    if s is None or isinstance(s, (ast.ConstAssign, ast.BottomAssign)):
        return set()
    fields = ("source", "operand", "left", "right", "obj", "array", "index", "value")
    return {getattr(s, f) for f in fields if hasattr(s, f)}


def test_dominating_consts_match_brute_force_on_loop_dense_programs():
    """The method's table holds, for every loop, exactly the brute-force
    constants at its header; `dominating_consts` gives those the loop reads."""
    params = GenParams(**LOOP_DENSE)
    loops_seen = names_seen = read_seen = 0
    for seed in range(30):
        for m in generate_program(seed, params).methods:
            if m.extern:
                continue
            g = build_cfg(m)
            loops = find_loops(g)
            consts = method_consts(g)
            for loop in loops:
                want = brute_dominating_consts(g, loop)
                held = {
                    name: value
                    for name, (nid, value) in consts.sites.items()
                    if consts.dom.dominates(nid, loop.header)
                }
                assert held == want, (seed, m.id, loop.header)
                reads = set().union(*(read_names(g.nodes[n].stmt) for n in loop.body))
                read = {name: value for name, value in want.items() if name in reads}
                assert dominating_consts(g, loop, consts) == read, (seed, m.id, loop.header)
                loops_seen += 1
                names_seen += len(want)
                read_seen += len(read)
    assert loops_seen >= 300 and names_seen >= 1000 and read_seen >= 300, (
        loops_seen, names_seen, read_seen
    )


# The loop layer's whole output, pinned per loop: the termination verdict,
# the dependency-free verdict, the summary, the counts of closing cycles and
# of exits, and the written names. Report digests see only the first two.
LOOP_LAYER_SOURCES = {
    "census": lambda: [generate_program(s, GenParams(**CENSUS)) for s in range(6)],
    "dense": lambda: [generate_program(s, GenParams(**LOOP_DENSE)) for s in range(6)],
    "df": lambda: [parse(generate_df_loop(s)[0]) for s in range(50)],
}
# (sources, nested policy, loops, digest of the per-loop rows)
LOOP_LAYER_PINNED = (
    ("census", "basic", 326, "0246cd875890a67b"),
    ("census", "summary", 326, "51c077d66bd63cf5"),
    ("dense", "basic", 64, "395262b30401d640"),
    ("dense", "summary", 64, "088efb5b267331d2"),
    ("df", "basic", 50, "e73eeb207d499028"),
    ("df", "summary", 50, "e73eeb207d499028"),
)


def loop_layer_rows(program, policy: str) -> list[str]:
    rows = []
    for mid, mm in ProgramModel(program, nested_policy=policy).methods.items():
        for lm in mm.loops:
            cs = lm.cycles
            rows.append(
                " | ".join(
                    (
                        f"{mid}@{lm.info.header}",
                        lm.verdict.render(),
                        lm.df.render() if lm.df else "-",
                        f"{lm.summary.render()} closable={lm.summary.closable}"
                        if lm.summary
                        else "-",
                        f"cycles={len(cs.cycles)} exits={cs.exits}" if cs else "-",
                        ",".join(sorted(cs.written_names)) if cs else "-",
                    )
                )
            )
    return rows


@pytest.mark.parametrize(
    "sources, policy, loops, digest",
    LOOP_LAYER_PINNED,
    ids=[f"{s}-{p}" for s, p, _, _ in LOOP_LAYER_PINNED],
)
def test_loop_layer_output_is_pinned(sources, policy, loops, digest):
    rows = [
        f"{k} {row}"
        for k, program in enumerate(LOOP_LAYER_SOURCES[sources]())
        for row in loop_layer_rows(program, policy)
    ]
    assert len(rows) == loops
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == digest
