"""Runtime-type resolution, call-graph construction, recursion detection."""

import random

from hypothesis import example, given, settings, strategies as st

from cook.aliases import AliasAnalysis
from cook.callgraph import (
    build_call_graph,
    recursion_set,
    strongly_connected_components,
)
from cook.generator import GenParams, generate_program
from cook.interp import Outcome, random_store, run_concrete
from cook.lang import ast, load
from cook.lang.check import check
import reference_hierarchy as reference

HIERARCHY = """
interface I {}
interface J extends I {}
class A implements J { f: int; }
class B extends A {}
class C extends B {}
class D { g: int; }
method m(): int { var x: int; x := 0; return x; }
"""


def test_runtime_types_reflexive_for_leaf_class():
    p, sym = load(HIERARCHY)
    assert sym.runtime_types("C") == {"C"}


def test_runtime_types_include_subclasses():
    p, sym = load(HIERARCHY)
    assert sym.runtime_types("A") == {"A", "B", "C"}


def test_interface_resolution_through_subinterfaces():
    p, sym = load(HIERARCHY)
    # A implements J, a subinterface of I; B and C are subclasses of A
    assert sym.runtime_types("I") == {"A", "B", "C"}
    assert sym.runtime_types("J") == {"A", "B", "C"}


def test_an_interface_diamond_is_accepted_and_assignable_both_ways():
    p, sym = load(
        """
interface I0 {}
interface I1 extends I0 {}
interface I2 extends I0 {}
interface I3 extends I1, I2 {}
class C implements I3 {}
method m(c: C): int {
  var d: I3; var a: I1; var b: I2; var z: I0; var x: int;
  d := c; a := d; b := d; z := a; z := b; z := d;
  x := 0;
  return x;
}
"""
    )
    for sup in ("I0", "I1", "I2", "I3"):
        assert sym.assignable("C", sup) and sym.assignable("I3", sup)
        assert sym.runtime_types(sup) == {"C"}
    assert sym.assignable("I1", "I0") and sym.assignable("I2", "I0")
    assert not sym.assignable("I1", "I2") and not sym.assignable("I0", "I3")


def brute_runtime_types(sym, declared):
    if declared in sym.classes:
        return {c for c in sym.classes if declared in reference.ancestors(sym, c)}
    # a class is a runtime type of interface `declared` when any ancestor
    # implements `declared` or one of its subinterfaces
    return {
        c
        for c in sym.classes
        for anc in reference.ancestors(sym, c)
        for i in sym.classes[anc].interfaces
        if declared in _iface_ancestors(sym, i)
    }


def _iface_ancestors(sym, iname):
    seen = {iname}
    work = [iname]
    while work:
        cur = work.pop()
        for sup in sym.interfaces[cur].extends:
            if sup not in seen:
                seen.add(sup)
                work.append(sup)
    return seen


METHOD_NAMES = ("a", "b", "c")
# what a class extends: mostly the class before it, so chains grow deep
CLASS_KINDS = ("previous",) * 14 + ("root", "any")


@st.composite
def hierarchies(draw):
    """A program of up to 8 interfaces, each extending up to three earlier
    ones, and up to 40 classes. Most classes extend the class before them, so
    chains run up to about 30 deep; each implements up to two interfaces and
    declares up to two fields of its own. Every root class declares methods
    `a`, `b` and `c`, and each other class overrides some of them. `probe`
    calls each method on a variable of each class. Several `extends` or
    `implements` of one type may reach one interface twice, a diamond."""
    lines = []
    n_ifaces = draw(st.integers(0, 8))
    for i in range(n_ifaces):
        ext = sorted(draw(st.sets(st.integers(0, i - 1), max_size=3))) if i else []
        ext_text = f" extends {', '.join(f'I{j}' for j in ext)}" if ext else ""
        lines.append(f"interface I{i}{ext_text} {{}}")
    n_classes = draw(st.integers(1, 40))
    for i in range(n_classes):
        kind = draw(st.sampled_from(CLASS_KINDS)) if i else "root"
        sup = draw(st.integers(0, i - 1)) if kind == "any" else None if kind == "root" else i - 1
        head = f"class C{i}" + (f" extends C{sup}" if sup is not None else "")
        impls = sorted(draw(st.sets(st.integers(0, n_ifaces - 1), max_size=2))) if n_ifaces else []
        if impls:
            head += f" implements {', '.join(f'I{j}' for j in impls)}"
        fields = "".join(f" f{i}_{k}: int;" for k in range(draw(st.integers(0, 2))))
        lines.append(f"{head} {{{fields} }}")
        names = METHOD_NAMES
        if sup is not None:
            names = sorted(draw(st.sets(st.sampled_from(METHOD_NAMES))))
        lines += [
            f"method C{i}.{n}(self: C{i}): int {{ var t: int; t := {i}; return t; }}" for n in names
        ]
    formals = ", ".join(f"v{i}: C{i}" for i in range(n_classes))
    calls = "".join(f" x := {n}(v{i});" for i in range(n_classes) for n in METHOD_NAMES)
    lines.append(f"method probe({formals}): int {{ var x: int; x := 0;{calls} return x; }}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(hierarchies())
@example(HIERARCHY)
def test_runtime_types_match_bruteforce_closure(src):
    """Every hierarchy query `check` records answers as the chain walks of
    `reference_hierarchy` do, on every type, field and method name."""
    p, sym = load(src)
    types = [*sym.classes, *sym.interfaces, "int", "int[]", "C0[]"]
    fields = {f.name for cls in p.classes for f in cls.fields} | {"nope"}
    for t in [*sym.classes, *sym.interfaces]:
        assert sym.runtime_types(t) == brute_runtime_types(sym, t), t
    for src_type in types:
        for dst in types:
            assert sym.assignable(src_type, dst) == reference.assignable(sym, src_type, dst), (
                src_type,
                dst,
            )
    for cls in sym.classes:
        for name in (*METHOD_NAMES, "nope"):
            assert sym.lookup_method(cls, name) is reference.lookup_method(sym, cls, name)
        for fname in fields:
            found = sym.field(cls, fname)
            assert (found and found[0]) == reference.declaring_class(sym, cls, fname)
        assert sym.all_fields(cls) == reference.all_fields(sym, cls)
    for m in p.methods:
        for s in ast.walk(m.body):
            if isinstance(s, ast.Call):
                assert sym.resolve_call(m, s) == reference.resolve_call(sym, m, s)


def test_call_chain_edges(clean_chain):
    p, sym = load(clean_chain)
    g = build_call_graph(p, AliasAnalysis(p, sym).calls)
    assert g.edges == {("foo", "bar")}


def test_no_calls_no_edges():
    p, sym = load("method solo(): int { var x: int; x := 1; return x; }")
    g = build_call_graph(p, AliasAnalysis(p, sym).calls)
    assert g.edges == frozenset()


def test_virtual_dispatch_includes_base_and_override():
    src = """
class A { f: int; }
class B extends A {}
method A.get(self: A): int { var t: int; t := self.f; return t; }
method B.get(self: B): int { var t: int; t := 0; return t; }
method use(o: A): int {
  var x: int;
  x := get(o);
  return x;
}
"""
    p, sym = load(src)
    g = build_call_graph(p, AliasAnalysis(p, sym).calls)
    assert ("use", "A.get") in g.edges and ("use", "B.get") in g.edges


def test_inherited_method_resolves_for_subclass_receiver():
    src = """
class A { f: int; }
class B extends A {}
method A.get(self: A): int { var t: int; t := self.f; return t; }
method use(o: B): int {
  var x: int;
  x := get(o);
  return x;
}
"""
    p, sym = load(src)
    g = build_call_graph(p, AliasAnalysis(p, sym).calls)
    assert g.edges == {("use", "A.get")}


def test_extern_calls_produce_no_edges():
    src = """
extern method api(): int;
method m(): int { var x: int; x := api(); return x; }
"""
    p, sym = load(src)
    g = build_call_graph(p, AliasAnalysis(p, sym).calls)
    assert g.edges == frozenset()


def test_self_recursion_detected():
    src = """
method f(n: int): int { var x: int; x := f(n); return x; }
"""
    p, sym = load(src)
    g = build_call_graph(p, AliasAnalysis(p, sym).calls)
    assert recursion_set(g) == frozenset({"f"})


def test_mutual_recursion_detected():
    src = """
method f(n: int): int { var x: int; x := g(n); return x; }
method g(n: int): int { var x: int; x := f(n); return x; }
"""
    p, sym = load(src)
    g = build_call_graph(p, AliasAnalysis(p, sym).calls)
    assert recursion_set(g) == frozenset({"f", "g"})


def test_plain_call_chain_is_not_recursive(clean_chain, opaque_loop_caller):
    for src in (clean_chain, opaque_loop_caller):
        p, sym = load(src)
        assert recursion_set(build_call_graph(p, AliasAnalysis(p, sym).calls)) == frozenset()


def brute_cycle_members(nodes, succs):
    def reachable(a):
        seen, work = set(), [a]
        while work:
            n = work.pop()
            for s in succs.get(n, ()):
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        return seen

    return {n for n in nodes if n in reachable(n)}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=1, max_value=15))
def test_scc_matches_bruteforce_on_random_digraphs(seed, n):
    rng = random.Random(seed)
    nodes = tuple(f"n{i}" for i in range(n))
    succs = {
        a: tuple(b for b in nodes if rng.random() < 0.2) for a in nodes
    }
    sccs = strongly_connected_components(nodes, succs)
    # partition property
    flat = [x for scc in sccs for x in scc]
    assert sorted(flat) == sorted(nodes)
    # cycle membership matches brute force
    members = {x for scc in sccs for x in scc if len(scc) > 1}
    members |= {a for a in nodes if a in succs.get(a, ())}
    assert members == brute_cycle_members(nodes, succs)


def test_dynamic_call_edges_are_subset_of_static_graph():
    rng = random.Random(9)
    checked = 0
    for seed in range(25):
        p = generate_program(
            seed,
            GenParams(methods=6, call=0.4, virtual=0.3, recursion=0.05, loop=0.15),
        )
        sym = check(p)
        al = AliasAnalysis(p, sym)
        g = build_call_graph(p, al.calls)
        for m in p.methods:
            if m.extern:
                continue
            store = random_store(sym, al, m.id, rng)
            args = [store.values[f.name] for f in m.formals]
            out = run_concrete(p, sym, al, m.id, args, fuel=30_000)
            if out.kind == Outcome.FAULT:
                continue
            internal = {
                e for e in out.call_trace if not sym.methods[e[1]].extern
            }
            assert internal <= set(g.edges), (seed, m.id, internal - set(g.edges))
            checked += 1
    assert checked >= 80
