"""CFG structure, dominance, loops, and control dependence.

Control dependence is checked against a path-enumeration oracle on small
graphs: post-dominance is decided by enumerating all simple paths to the
exit, and the dependence definition is applied directly to that relation.
"""

from cook.cfg import (
    BRANCH,
    build_cfg,
    control_dependents,
    find_loops,
    governing_branches,
    post_dominators,
    dominates,
)
from cook.generator import GenParams, generate_program
from cook.lang import ast, parse


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
        ipdom = post_dominators(g)
        for n in range(len(g.nodes)):
            if n == g.exit:
                continue
            assert ipdom[n] in brute[n] and ipdom[n] != n
            assert dominates(ipdom, g.exit, ipdom[n], n)


def test_transitive_closure_contains_direct_relation():
    for g in small_cfgs(want=10):
        direct = control_dependents(g)
        trans = governing_branches(g)
        for b, nodes in direct.items():
            for n in nodes:
                assert b in trans[n]


def test_every_node_reachable_and_reaches_exit():
    for seed in range(10):
        p = generate_program(seed, GenParams(methods=4, loop=0.3))
        for m in p.methods:
            if m.extern:
                continue
            g = build_cfg(m)
            # post_dominators raises if the exit is unreachable from any node
            post_dominators(g)
            seen = {g.entry}
            work = [g.entry]
            while work:
                n = work.pop()
                for s in g.succs[n]:
                    if s not in seen:
                        seen.add(s)
                        work.append(s)
            assert seen == set(range(len(g.nodes)))
