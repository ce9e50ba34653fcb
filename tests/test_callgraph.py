"""Runtime-type resolution, call-graph construction, recursion detection."""

import random

from hypothesis import given, settings, strategies as st

from cook.aliases import AliasAnalysis
from cook.callgraph import (
    CallGraph,
    build_call_graph,
    recursion_set,
    strongly_connected_components,
)
from cook.generator import GenParams, generate_program
from cook.interp import Outcome, random_store, run_concrete
from cook.lang import load

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


def brute_runtime_types(sym, declared):
    if declared in sym.classes:
        return {
            c for c in sym.classes if declared in sym.ancestors(c)
        }
    ifaces = {
        i
        for i in sym.interfaces
        if declared in _iface_ancestors(sym, i)
    }
    out = set()
    for c in sym.classes:
        direct = set()
        for anc in sym.ancestors(c):
            for i in sym.classes[anc].interfaces:
                direct |= _iface_ancestors(sym, i)
        if direct & ifaces or any(
            i in ifaces or declared in _iface_ancestors(sym, i)
            for i in direct
        ):
            pass
        # a class is a runtime type of interface `declared` when any ancestor
        # implements `declared` or one of its subinterfaces
        for anc in sym.ancestors(c):
            for i in sym.classes[anc].interfaces:
                if declared in _iface_ancestors(sym, i):
                    out.add(c)
    return out


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


def test_runtime_types_match_bruteforce_closure():
    p, sym = load(HIERARCHY)
    for t in list(sym.classes) + list(sym.interfaces):
        assert sym.runtime_types(t) == brute_runtime_types(sym, t), t


def test_call_chain_edges(clean_chain):
    p, sym = load(clean_chain)
    g = build_call_graph(p, sym)
    assert g.edges == {("foo", "bar")}


def test_no_calls_no_edges():
    p, sym = load("method solo(): int { var x: int; x := 1; return x; }")
    g = build_call_graph(p, sym)
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
    g = build_call_graph(p, sym)
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
    g = build_call_graph(p, sym)
    assert g.edges == {("use", "A.get")}


def test_extern_calls_produce_no_edges():
    src = """
extern method api(): int;
method m(): int { var x: int; x := api(); return x; }
"""
    p, sym = load(src)
    g = build_call_graph(p, sym)
    assert g.edges == frozenset()


def test_self_recursion_detected():
    src = """
method f(n: int): int { var x: int; x := f(n); return x; }
"""
    p, sym = load(src)
    g = build_call_graph(p, sym)
    assert recursion_set(g) == frozenset({"f"})


def test_mutual_recursion_detected():
    src = """
method f(n: int): int { var x: int; x := g(n); return x; }
method g(n: int): int { var x: int; x := f(n); return x; }
"""
    p, sym = load(src)
    g = build_call_graph(p, sym)
    assert recursion_set(g) == frozenset({"f", "g"})


def test_plain_call_chain_is_not_recursive(clean_chain, opaque_loop_caller):
    for src in (clean_chain, opaque_loop_caller):
        p, sym = load(src)
        assert recursion_set(build_call_graph(p, sym)) == frozenset()


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
        from cook.lang.check import check

        sym = check(p)
        al = AliasAnalysis(p, sym)
        g = build_call_graph(p, sym)
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
