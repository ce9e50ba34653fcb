"""CFG structure, dominance, loops, and control dependence.

Control dependence is checked against a path-enumeration oracle on small
graphs: post-dominance is decided by enumerating all simple paths to the
exit, and the dependence definition is applied directly to that relation.
The dominators and post-dominators `build_cfg` records are checked against
a node-removal oracle, and against the iterative algorithm kept in
`reference_dominance` on programs of the benchmark's generator profiles.
"""

import random

import pytest

from cook.cfg import (
    BRANCH,
    _direct_masks,
    build_cfg,
    dominator_tree,
    find_loops,
    governing_branches,
    set_bits,
)
from cook.generator import GenParams, generate_program
from cook.lang import ast, parse
from cook.lang.parser import MAX_BLOCK_DEPTH
from cook.pipeline import ProgramModel
from cook.report import transformed_model
from reference_dominance import dominators, post_dominators


def dominates(idom: dict[int, int], root: int, a: int, b: int) -> bool:
    """True when `a` (post-)dominates `b` under the given immediate-dom map,
    read up the tree from `b`."""
    cur = b
    while True:
        if cur == a:
            return True
        if cur == root:
            return False
        cur = idom[cur]


def control_dependents(g) -> dict[int, set[int]]:
    """Direct control dependence: branch node -> set of dependent nodes."""
    deps: dict[int, set[int]] = {}
    for n, mask in enumerate(_direct_masks(g)):
        for b in set_bits(mask):
            deps.setdefault(b, set()).add(n)
    return deps


def cfg_of(src: str, method: str = None):
    p = parse(src)
    methods = {m.id: m for m in p.methods if not m.extern}
    m = methods[method] if method else next(iter(methods.values()))
    return build_cfg(m)


def count_expected_nodes(stmt) -> int:
    # one node per statement, branches count themselves only
    return sum(1 for _ in ast.walk(stmt))


def count_expected_out_edges(stmt) -> int:
    total = 1  # entry edge
    for s in ast.walk(stmt):
        if isinstance(s, (ast.IfElse, ast.While)):
            total += 2
        else:
            total += 1
    return total


def test_linear_method_shape():
    g = cfg_of("method m(): int { var x: int; x := 1; return x; }")
    assert len(g.nodes) == 4  # entry, assign, return, exit
    assert g.succs[g.entry] != [] and g.succs[g.exit] == []
    assert g.preds[g.entry] == []


def test_branch_convergence_before_exit():
    src = """
method m(x: int, z: int): int {
  var y: int; var zero: int;
  y := 0; zero := 0;
  if x > zero then { y := z; }
  return y;
}
"""
    g = cfg_of(src)
    branches = [n for n in g.nodes if n.kind == BRANCH]
    assert len(branches) == 1
    b = branches[0].id
    assert len(g.succs[b]) == 2
    t, f = g.succs[b]
    assert t != f  # then-arm node vs join


def test_node_and_edge_counts_match_structural_oracle():
    for seed in range(30):
        p = generate_program(seed, GenParams(methods=5, loop=0.3, branch=0.4))
        for m in p.methods:
            if m.extern:
                continue
            g = build_cfg(m)
            assert len(g.nodes) == count_expected_nodes(m.body) + 2
            assert sum(len(row) for row in g.succs) == count_expected_out_edges(m.body)


def test_loop_free_method_has_no_loops():
    g = cfg_of("method m(a: int): int { var x: int; x := a; return x; }")
    assert find_loops(g) == []


def test_nested_loops_report_parents_and_depths():
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
    g = cfg_of(src)
    loops = sorted(find_loops(g), key=lambda l: l.depth)
    assert len(loops) == 2
    outer, inner = loops
    assert inner.parent == outer.id
    assert (outer.depth, inner.depth) == (1, 2)
    assert inner.body < outer.body
    assert outer.header in outer.body and inner.header in inner.body


def test_self_loops_and_duplicated_back_edges_are_kept():
    # an empty while body is a self loop; an if with two empty arms at the end
    # of a body sends both of its edges back to the header
    src = """
method m(a: int): int {
  var i: int;
  i := 0;
  while a < i do { }
  while a < i do { if i < a then { } else { } }
  return a;
}
"""
    g = cfg_of(src)
    first, second, inner_if = (n.id for n in g.nodes if n.kind == BRANCH)
    loops = find_loops(g)
    assert [(l.id, l.header, l.body, l.back_edges, l.parent, l.depth) for l in loops] == [
        (0, first, frozenset({first}), ((first, first),), None, 1),
        (
            1,
            second,
            frozenset({second, inner_if}),
            ((inner_if, second), (inner_if, second)),
            None,
            1,
        ),
    ]


def test_counted_loop_header_is_condition_node(counted_loop):
    g = cfg_of(counted_loop)
    (loop,) = find_loops(g)
    assert g.nodes[loop.header].kind == BRANCH
    assert isinstance(g.nodes[loop.header].stmt, ast.While)


def test_back_edge_endpoints_inside_some_loop():
    for seed in range(20):
        p = generate_program(seed, GenParams(methods=4, loop=0.35, branch=0.3))
        for m in p.methods:
            if m.extern:
                continue
            g = build_cfg(m)
            loops = find_loops(g)
            for loop in loops:
                for u, h in loop.back_edges:
                    assert u in loop.body and h in loop.body


def test_branch_dependent_in_diamond():
    src = """
method m(x: int, z: int): int {
  var y: int; var zero: int;
  y := 0; zero := 0;
  if x > zero then { y := z; }
  return y;
}
"""
    g = cfg_of(src)
    cd = control_dependents(g)
    (b,) = [n.id for n in g.nodes if n.kind == BRANCH]
    assign_y_z = [
        n.id
        for n in g.nodes
        if isinstance(n.stmt, ast.CopyAssign) and n.stmt.source == "z"
    ]
    assert assign_y_z and set(assign_y_z) <= cd[b]


def test_straight_line_has_no_control_dependence():
    g = cfg_of("method m(a: int): int { var x: int; x := a; return x; }")
    assert control_dependents(g) == {}


# -- brute-force oracle -------------------------------------------------------


def simple_paths_to_exit(g, start):
    paths = []
    stack = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == g.exit:
            paths.append(path)
            continue
        for s in g.succs[node]:
            if s not in path:
                stack.append((s, path + [s]))
    return paths


def brute_postdominators(g):
    """n post-dominates m iff every simple m->exit path passes through n."""
    pdom = {}
    for m in range(len(g.nodes)):
        paths = simple_paths_to_exit(g, m)
        assert paths, "exit must be reachable"
        common = set(paths[0])
        for p in paths[1:]:
            common &= set(p)
        pdom[m] = common
    return pdom


def brute_control_dependents(g):
    pdom = brute_postdominators(g)
    deps = {}
    for b, node in enumerate(g.nodes):
        if node.kind != BRANCH:
            continue
        out = set()
        for n in range(len(g.nodes)):
            strictly_pdoms_b = n in pdom[b] and n != b
            if strictly_pdoms_b:
                continue
            if any(n in pdom[s] for s in g.succs[b]):
                out.add(n)
        if out:
            deps[b] = out
    return deps


def small_cfgs(max_nodes=12, want=25):
    found = []
    seed = 0
    while len(found) < want and seed < 300:
        p = generate_program(seed, GenParams(methods=3, loop=0.3, branch=0.5, stmts=(2, 5)))
        for m in p.methods:
            if m.extern:
                continue
            g = build_cfg(m)
            if len(g.nodes) <= max_nodes:
                found.append(g)
        seed += 1
    assert len(found) >= want
    return found[:want]


def test_control_dependence_matches_path_enumeration_oracle():
    for g in small_cfgs():
        assert control_dependents(g) == brute_control_dependents(g)


def test_ipdom_really_postdominates():
    for g in small_cfgs():
        brute = brute_postdominators(g)
        ipdom = dict(enumerate(g.ipdom))
        for n in range(len(g.nodes)):
            if n == g.exit:
                continue
            assert ipdom[n] in brute[n] and ipdom[n] != n
            assert dominates(ipdom, g.exit, ipdom[n], n)


def test_every_node_reachable_and_reaches_exit():
    for seed in range(10):
        p = generate_program(seed, GenParams(methods=4, loop=0.3))
        for m in p.methods:
            if m.extern:
                continue
            g = build_cfg(m)
            every = set(range(len(g.nodes)))
            assert reachable(g.succs, g.entry, None) == every
            assert reachable(g.preds, g.exit, None) == every


# -- exact oracles on larger graphs ---------------------------------------------


def random_method(rng, max_depth):
    """Source of a method with nested ifs and loops, where a then-block or a
    loop body may end in a return."""
    names = ("a", "b", "x", "y")

    def block(depth):
        out = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random() if depth < max_depth else 0.0
            cond = f"{rng.choice(names)} < {rng.choice(names)}"
            if kind < 0.4:
                out.append(f"{rng.choice(names[2:])} := {rng.choice(names)};")
            elif kind < 0.7:
                then = block(depth + 1) + (["return x;"] if rng.random() < 0.3 else [])
                els = block(depth + 1) if rng.random() < 0.5 else []
                out += [f"if {cond} then {{", *then, "} else {", *els, "}"]
            else:
                body = block(depth + 1) + (["return y;"] if rng.random() < 0.2 else [])
                out += [f"while {cond} do {{", *body, "}"]
        return out

    lines = ["method m(a: int, b: int): int {", "var x: int; var y: int;"]
    return "\n".join(lines + block(0) + ["return x;", "}"]) + "\n"


def nested_blocks(depth):
    heads = ["if a < x then {", "while a < x do {"]
    lines = ["method m(a: int): int {", "var x: int;"]
    lines += [heads[d % 2] for d in range(depth)]
    lines += ["x := a;", "return x;"] + ["}"] * depth + ["return x;", "}"]
    return "\n".join(lines) + "\n"


def oracle_cfgs():
    rng = random.Random(5)
    graphs = [cfg_of(random_method(rng, 4)) for _ in range(60)]
    graphs.append(cfg_of(nested_blocks(MAX_BLOCK_DEPTH)))
    return graphs


def reachable(succs, start, removed):
    seen = {start} if start != removed else set()
    work = list(seen)
    while work:
        for s in succs[work.pop()]:
            if s != removed and s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def brute_dominator_sets(start, succs):
    """d dominates n iff n is reachable from `start` but not once d is removed."""
    every = reachable(succs, start, None)
    doms = {n: set() for n in every}
    for d in every:
        for n in every - reachable(succs, start, d):
            doms[n].add(d)
    return doms


def tree_sets(idom, root):
    """Each node's dominators, read up the immediate-dominator tree."""
    out = {}
    for n in idom:
        chain, cur = {n}, n
        while cur != root:
            cur = idom[cur]
            chain.add(cur)
        out[n] = chain
    return out


def test_oracle_graphs_have_nested_loops_and_returns_inside_loops():
    graphs = oracle_cfgs()
    assert sum(any(l.depth >= 2 for l in find_loops(g)) for g in graphs) >= 10
    inside = sum(
        any(isinstance(s, ast.Return) for l in find_loops(g) for s in ast.walk(l.stmt.body))
        for g in graphs
    )
    assert inside >= 10, inside
    assert max(len(g.nodes) for g in graphs) > MAX_BLOCK_DEPTH


def test_dominators_match_the_node_removal_oracle():
    for g in oracle_cfgs() + small_cfgs():
        idom, ipdom = dict(enumerate(g.idom)), dict(enumerate(g.ipdom))
        assert tree_sets(idom, g.entry) == brute_dominator_sets(g.entry, g.succs)
        assert tree_sets(ipdom, g.exit) == brute_dominator_sets(g.exit, g.preds)


# the generator profiles of the benchmark's workloads
CENSUS = dict(
    methods=16, classes=2, loop=0.2, opaque_loop=0.05, recursion=0.03, extern=0.08, call=0.3
)
ISLANDS = dict(methods=50, classes=4, loop=0.15, heap=0.6, virtual=0.5, max_depth=1)
LOOP_DENSE = dict(methods=3, stmts=(1, 3), loop=0.7, opaque_loop=0.1, max_depth=2, call=0.1)


@pytest.mark.parametrize("policy", ("basic", "summary"))
@pytest.mark.parametrize(
    "params, seeds",
    ((CENSUS, range(3)), (ISLANDS, range(2)), (LOOP_DENSE, range(20))),
    ids=("census", "islands", "loops"),
)
def test_recorded_dominance_is_the_reference_on_profile_programs(params, seeds, policy):
    graphs = 0
    for seed in seeds:
        model = ProgramModel(generate_program(seed, GenParams(**params)), nested_policy=policy)
        for mm in (*model.methods.values(), *transformed_model(model).methods.values()):
            g = mm.cfg
            assert dict(enumerate(g.idom)) == dominators(g), g.method_id
            assert dict(enumerate(g.ipdom)) == post_dominators(g), g.method_id
            graphs += 1
    assert graphs >= 40, graphs


def test_dominator_tree_numbers_answer_every_pair_as_the_oracle():
    for g in oracle_cfgs():
        doms = brute_dominator_sets(g.entry, g.succs)
        tree = dominator_tree(g)
        for b in range(len(g.nodes)):
            assert {a for a in range(len(g.nodes)) if tree.dominates(a, b)} == doms[b], b


def test_loop_nesting_is_the_smallest_strictly_containing_body():
    for g in oracle_cfgs():
        loops = find_loops(g)
        for loop in loops:
            around = [o for o in loops if loop.body < o.body]
            smallest = min(around, key=lambda o: len(o.body), default=None)
            assert loop.parent == (smallest.id if smallest else None)
            assert loop.children == tuple(c.id for c in loops if c.parent == loop.id)


def test_control_dependence_matches_the_node_removal_oracle():
    for g in oracle_cfgs():
        pdom = brute_dominator_sets(g.exit, g.preds)
        expected = {}
        for b, node in enumerate(g.nodes):
            if node.kind != BRANCH:
                continue
            deps = {
                n
                for n in range(len(g.nodes))
                if not (n in pdom[b] and n != b) and any(n in pdom[s] for s in g.succs[b])
            }
            if deps:
                expected[b] = deps
        assert control_dependents(g) == expected


def closure_of(direct, size):
    """Per node, the branches it reaches over direct control dependence."""
    on = [set() for _ in range(size)]
    for b, nodes in direct.items():
        for n in nodes:
            on[n].add(b)
    changed = True
    while changed:
        changed = False
        for n in range(size):
            extra = set().union(*(on[b] for b in on[n]))
            if not extra <= on[n]:
                on[n] |= extra
                changed = True
    return [frozenset(s) for s in on]


def test_transitive_closure_contains_direct_relation():
    for g in oracle_cfgs() + small_cfgs():
        direct = control_dependents(g)
        trans = [frozenset(set_bits(mask)) for mask in governing_branches(g)]
        for b, nodes in direct.items():
            for n in nodes:
                assert b in trans[n]
        assert trans == closure_of(direct, len(g.nodes))
