"""The model of the rewritten program reuses the first model's work for every
method the rewrite left unchanged, and matches a model built from scratch."""

import dataclasses

import pytest

from cook.aliases import AliasAnalysis
from cook.analysis import analyze_program
from cook.errors import CheckDiagnostic
from cook.generator import GenParams, generate_program
from cook.lang import ast, load, parse_unit
from cook.lang.check import _Checker, check
from cook.pipeline import ProgramModel
from cook.report import transformed_model
from cook.representatives import BOTTOM, ArrayPart, Scalar, TypeField
from cook.rewrite import rewrite_program
from reference_aliases import node_table_writes, reference_of

# the benchmark's three profiles, with fewer methods
CENSUS = dict(
    methods=16, classes=2, loop=0.2, opaque_loop=0.05, recursion=0.03, extern=0.08, call=0.3
)
ISLANDS = dict(
    methods=20, classes=4, loop=0.15, opaque_loop=0, recursion=0, extern=0, heap=0.6,
    virtual=0.5, max_depth=1,
)
LOOP_DENSE = dict(methods=4, stmts=(1, 3), loop=0.7, opaque_loop=0.1, max_depth=2, call=0.3)
CASES = [
    (name, params, seed, policy)
    for name, params, seeds in (
        ("census", CENSUS, range(3)),
        ("islands", ISLANDS, range(3)),
        ("loops", LOOP_DENSE, range(8)),
    )
    for seed in seeds
    for policy in ("basic", "summary")
]

# only `looping` is rewritten: its loop cannot be proven to terminate, so it
# becomes one bottom assignment and `looping` stops calling `helper`; the
# unchanged `caller`, and `top` through it, then no longer write `helper`'s
# frame. `B` declares no field and no method has an array
CALLEE_ONLY = """
class A { f: int; }
class B extends A { }
method top(o: A): int { var r: int; r := caller(o); return r; }
method caller(o: A): int {
  var x: int;
  o.f := x;
  x := looping(x);
  return x;
}
method looping(n: int): int {
  var lo: int; var hi: int; var y: int;
  lo := 0; hi := 1; y := n;
  while lo < hi do { y := helper(y); }
  return y;
}
method helper(a: int): int { var t: int; t := a; return t; }
"""


def from_scratch(model, p2):
    """The rewritten model with every method checked, walked and translated
    anew: the rewritten program with fresh method objects, which nothing of
    `model` belongs to, keeping only `model`'s partition numbering."""
    fresh = dataclasses.replace(p2, methods=tuple(dataclasses.replace(m) for m in p2.methods))
    sym = check(fresh)
    aliases = AliasAnalysis(fresh, sym, base=model.aliases)
    return ProgramModel(fresh, sym, safe_list=model.safe_list, aliases=aliases, base=model)


def assert_same_as_from_scratch(model):
    """Compares `transformed_model(model)` with `from_scratch`; returns the
    ids of the methods the rewrite left unchanged."""
    tmodel = transformed_model(model)
    ref = from_scratch(model, tmodel.program)
    assert tmodel.program == ref.program
    assert tmodel.symbols.var_types == ref.symbols.var_types
    unchanged = set()
    for m, rm in zip(tmodel.program.methods, ref.program.methods):
        if m.extern:
            continue
        for s in ast.walk(m.body):
            if isinstance(s, ast.Call):
                assert tmodel.symbols.resolve_call(m, s) == ref.symbols.resolve_call(rm, s)
        cfg, ref_cfg = tmodel.methods[m.id].cfg, ref.methods[m.id].cfg
        assert cfg == ref_cfg, m.id
        assert ref_cfg is not model.methods[m.id].cfg
        if m is model.methods[m.id].method:
            unchanged.add(m.id)
            assert cfg is model.methods[m.id].cfg, m.id
        else:
            assert cfg is not model.methods[m.id].cfg, m.id
        al, ref_al = tmodel.aliases, ref.aliases
        assert al.observable_writes(m.id, m.body) == ref_al.observable_writes(m.id, m.body)
        assert al.heap_writes(m.id) == ref_al.heap_writes(m.id), m.id
    assert tmodel.callgraph == ref.callgraph  # nodes, edges, successors, predecessors
    closure = reference_of(ref)
    writes = node_table_writes(tmodel)
    assert writes == node_table_writes(ref) == {mid: closure.call_writes(mid) for mid in writes}
    assert tmodel.analysis_order() == ref.analysis_order()
    for swamp_test in ("pre", "post"):
        assert analyze_program(tmodel, swamp_test) == analyze_program(ref, swamp_test)
    return unchanged


@pytest.mark.parametrize(
    "name, params, seed, policy", CASES, ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in CASES]
)
def test_incremental_model_matches_a_from_scratch_build(name, params, seed, policy):
    model = ProgramModel(generate_program(seed, GenParams(**params)), nested_policy=policy)
    unchanged = assert_same_as_from_scratch(model)
    if name == "islands":
        # divergence-free: the rewrite changes nothing, so everything is reused
        assert unchanged == set(model.methods)


def test_generated_cases_hold_changed_and_unchanged_methods():
    unchanged = changed = 0
    for _, params, seed, policy in CASES:
        model = ProgramModel(generate_program(seed, GenParams(**params)), nested_policy=policy)
        p2 = rewrite_program(model)
        for m in p2.methods:
            if not m.extern:
                same = m is model.methods[m.id].method
                unchanged += same
                changed += not same
    assert unchanged >= 50 and changed >= 50, (unchanged, changed)


def test_each_body_is_checked_once_and_the_rewritten_program_not_at_all():
    checked: list[str] = []
    check_method = _Checker.check_method

    def counting_check_method(self, m):
        checked.append(m.id)
        return check_method(self, m)

    rewritten = 0
    for seed in range(3):
        program = generate_program(seed, GenParams(**CENSUS))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Checker, "check_method", counting_check_method)
            model = ProgramModel(program)
            assert sorted(checked) == sorted(m.id for m in program.methods if not m.extern)
            checked.clear()
            tmodel = transformed_model(model)
            assert checked == [], seed
        rewritten += sum(
            mm.method is not model.methods[mid].method for mid, mm in tmodel.methods.items()
        )
    assert rewritten  # methods a second check of every changed body would have counted


def test_unchanged_caller_of_a_rewritten_callee_gets_the_new_closure():
    p, sym = load(CALLEE_ONLY)
    model = ProgramModel(p, sym)
    unchanged = assert_same_as_from_scratch(model)
    assert unchanged == {"top", "caller", "helper"}
    # the first model has no call cycle either, so its tables build callees first
    first, rewritten = node_table_writes(model), node_table_writes(transformed_model(model))
    for mid in ("top", "caller"):
        before, after = first[mid], rewritten[mid]
        assert {r.render() for r in before - after} == {"helper::ret", "helper::t"}, mid
        assert after < before, mid


@pytest.mark.parametrize(
    "target, message",
    [
        (TypeField("Nowhere", "f"), "unknown class 'Nowhere' in bottom target"),
        (ArrayPart(-1), "negative array partition"),
        # neither names a heap location of the program
        (TypeField("B", "f"), "field 'f' is declared in 'A'"),
        (ArrayPart(7), "no array partition 7"),
        # a scalar target names a formal, local or `ret` of the method it is in
        (Scalar("caller", "zzz"), "unknown identifier 'zzz'"),
        (Scalar("nowhere", "x"), "bottom target 'nowhere::x' is not a scalar of method 'caller'"),
        (Scalar("helper", "zzz"), "bottom target 'helper::zzz' is not a scalar of method 'caller'"),
        # `looping` is the callee of `caller`
        (Scalar("looping", "ret"), "bottom target 'looping::ret' is not a scalar of method 'caller'"),
    ],
)
def test_methods_the_rewrite_changed_are_checked(monkeypatch, target, message):
    p, sym = load(CALLEE_ONLY)
    model = ProgramModel(p, sym)

    def bad_rewrite(model):
        m = model.symbols.methods["caller"]
        bad = ast.BottomAssign((target,), ast.DivergenceCause.LOOP)
        methods = tuple(
            dataclasses.replace(m, body=(bad, *m.body)) if k is m else k
            for k in model.program.methods
        )
        return dataclasses.replace(model.program, methods=methods)

    monkeypatch.setattr("cook.report.rewrite_program", bad_rewrite)
    with pytest.raises(CheckDiagnostic, match=message):
        transformed_model(model)


# a bottom target names a field by its declaring class, only a partition the
# program has, and only a formal, local or `ret` of the method it is in: not
# another method's, an extern's included
BOTTOM_TARGET = """
class A {{ f: int; }}
class B extends A {{ }}
method m(o: A): int {{
  var x: int;
  {target} := bottom(api);
  x := o.f;
  return x;
}}
method h(a: int): int {{ var y: int; y := a; return y; }}
extern method e(a: int): int;
"""


def test_a_bottom_target_names_a_heap_location_of_the_program():
    program = parse_unit(BOTTOM_TARGET.format(target="A.f"), allow_bottom=True)
    result = analyze_program(ProgramModel(program, check(program)))
    dependents = {dep.render() for dep, src, _ in result.facts["m"] if src == BOTTOM}
    assert dependents == {"A.f", "m::x", "m::ret"}
    for target in ("m::o", "m::x", "m::ret"):
        program = parse_unit(BOTTOM_TARGET.format(target=target), allow_bottom=True)
        analyze_program(ProgramModel(program, check(program)))
    program = parse_unit(BOTTOM_TARGET.format(target="B.f"), allow_bottom=True)
    symbols = check(program)
    with pytest.raises(CheckDiagnostic, match="field 'f' is declared in 'A'") as err:
        ProgramModel(program, symbols)
    assert err.value.line == 6
    program = parse_unit(BOTTOM_TARGET.format(target="part#7"), allow_bottom=True)
    symbols = check(program)
    with pytest.raises(CheckDiagnostic, match="no array partition 7") as err:
        ProgramModel(program, symbols)
    assert err.value.line == 6
    foreign = "bottom target '{}' is not a scalar of method 'm'"
    for target, message in (
        ("m::zzz", "unknown identifier 'zzz'"),
        *(
            (t, foreign.format(t))
            for t in ("h::a", "h::y", "h::ret", "e::a", "e::ret", "h::zzz", "e::y", "nowhere::x")
        ),
    ):
        program = parse_unit(BOTTOM_TARGET.format(target=target), allow_bottom=True)
        symbols = check(program)
        with pytest.raises(CheckDiagnostic, match=message) as err:
            ProgramModel(program, symbols)
        assert err.value.line == 6, target
