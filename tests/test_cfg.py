"""CFG structure, dominance, loops, and control dependence.

The governing branches `build_cfg` records are checked against the
post-dominator walk of Ferrante, Ottenstein and Warren closed transitively,
kept in `reference_dominance`, on random methods with returns in either arm
or both, on hand-written cases, and on programs of the benchmark's generator
profiles. That reference is in turn checked against a path-enumeration
oracle on small graphs, where post-dominance is decided by enumerating all
simple paths to the exit, and against a node-removal oracle, applying the
dependence definition directly to those relations. The dominators
`build_cfg` records are checked against the node-removal oracle, and against
the iterative algorithm kept in `reference_dominance` on the profile
programs. The loops it records are checked against the graph search kept in
`reference_loops`, on the same programs and on random methods with returns
inside nested loops.
"""

import random

import pytest

from cook.cfg import BRANCHES, build_cfg, dominator_tree, find_loops, governing_branches, set_bits
from cook.generator import GenParams, generate_program
from cook.lang import ast, parse
from cook.lang.parser import MAX_BLOCK_DEPTH
from cook.pipeline import ProgramModel
from cook.report import transformed_model
from profiles import CENSUS, ISLANDS, LOOP_DENSE
from reference_dominance import direct_masks, dominators, post_dominators
from reference_dominance import governing_branches as reference_governing
from reference_loops import find_loops as searched_loops, loop_fields


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
    for n, mask in enumerate(direct_masks(g)):
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
    branches = [n for n, s in enumerate(g.nodes) if isinstance(s, BRANCHES)]
    assert len(branches) == 1
    b = branches[0]
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
    first, second, inner_if = (n for n, s in enumerate(g.nodes) if isinstance(s, BRANCHES))
    assert [(l.id, l.header, l.body, l.parent, l.depth) for l in find_loops(g)] == [
        (0, first, frozenset({first}), None, 1),
        (1, second, frozenset({second, inner_if}), None, 1),
    ]
    assert [l.back_edges for l in searched_loops(g)] == [
        ((first, first),),
        ((inner_if, second), (inner_if, second)),
    ]


def test_counted_loop_header_is_condition_node(counted_loop):
    m = next(m for m in parse(counted_loop).methods if not m.extern)
    g = build_cfg(m)
    (loop,) = find_loops(g)
    (while_stmt,) = [s for s in ast.walk(m.body) if type(s) is ast.While]
    assert g.nodes[loop.header] is while_stmt


def test_back_edge_endpoints_inside_some_loop():
    for seed in range(20):
        p = generate_program(seed, GenParams(methods=4, loop=0.35, branch=0.3))
        for m in p.methods:
            if m.extern:
                continue
            g = build_cfg(m)
            at_header = {loop.header: loop for loop in find_loops(g)}
            for searched in searched_loops(g):
                for u, h in searched.back_edges:
                    assert u in at_header[h].body and h in at_header[h].body


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
    (b,) = [n for n, s in enumerate(g.nodes) if isinstance(s, BRANCHES)]
    assign_y_z = [
        n for n, s in enumerate(g.nodes) if isinstance(s, ast.CopyAssign) and s.source == "z"
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
    for b, s in enumerate(g.nodes):
        if not isinstance(s, BRANCHES):
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


def random_method(rng, max_depth, else_returns=False):
    """Source of a method with nested ifs and loops, where a then-block or a
    loop body may end in a return. With `else_returns` an else-block may end
    in one too, so both arms of an `if` may return, which ends its block."""
    names = ("a", "b", "x", "y")

    def block(depth):
        """The block's lines, and whether it falls through."""
        out = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random() if depth < max_depth else 0.0
            cond = f"{rng.choice(names)} < {rng.choice(names)}"
            if kind < 0.4:
                out.append(f"{rng.choice(names[2:])} := {rng.choice(names)};")
            elif kind < 0.7:
                then, then_falls = block(depth + 1)
                if then_falls and rng.random() < 0.3:
                    then, then_falls = then + ["return x;"], False
                els, else_falls = block(depth + 1) if rng.random() < 0.5 else ([], True)
                if else_returns and else_falls and rng.random() < 0.4:
                    els, else_falls = els + ["return y;"], False
                out += [f"if {cond} then {{", *then, "} else {", *els, "}"]
                if not (then_falls or else_falls):
                    return out, False
            else:
                body, falls = block(depth + 1)
                if falls and rng.random() < 0.2:
                    body = body + ["return y;"]
                out += [f"while {cond} do {{", *body, "}"]
        return out, True

    lines = ["method m(a: int, b: int): int {", "var x: int; var y: int;"]
    body, falls = block(0)
    return "\n".join(lines + body + (["return x;"] if falls else []) + ["}"]) + "\n"


def nested_blocks(depth):
    heads = ["if a < x then {", "while a < x do {"]
    lines = ["method m(a: int): int {", "var x: int;"]
    lines += [heads[d % 2] for d in range(depth)]
    lines += ["x := a;", "return x;"] + ["}"] * depth + ["return x;", "}"]
    return "\n".join(lines) + "\n"


def oracle_cfgs():
    rng = random.Random(5)
    graphs = [cfg_of(random_method(rng, 4)) for _ in range(60)]
    rng = random.Random(6)
    graphs += [cfg_of(random_method(rng, 4, else_returns=True)) for _ in range(60)]
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
        any(isinstance(s, ast.Return) for l in find_loops(g) for s in ast.walk(g.nodes[l.header].body))
        for g in graphs
    )
    assert inside >= 10, inside
    # a `while` whose body returns on every path is no loop
    assert sum(len(g.whiles) > len(find_loops(g)) for g in graphs) >= 10
    ifs = [[s for s in g.nodes if isinstance(s, ast.IfElse)] for g in graphs]

    def ends_in_return(block):
        return bool(block) and isinstance(block[-1], ast.Return)

    else_returns = sum(any(ends_in_return(s.else_body) for s in row) for row in ifs)
    assert else_returns >= 10, else_returns
    both_return = sum(
        any(ends_in_return(s.then_body) and ends_in_return(s.else_body) for s in row)
        for row in ifs
    )
    assert both_return >= 10, both_return
    assert max(len(g.nodes) for g in graphs) > MAX_BLOCK_DEPTH


def test_dominators_match_the_node_removal_oracle():
    for g in oracle_cfgs() + small_cfgs():
        idom, ipdom = dict(enumerate(g.idom)), post_dominators(g)
        assert tree_sets(idom, g.entry) == brute_dominator_sets(g.entry, g.succs)
        assert tree_sets(ipdom, g.exit) == brute_dominator_sets(g.exit, g.preds)


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
            assert governing_branches(g) == reference_governing(g), g.method_id
            assert loop_fields(find_loops(g)) == loop_fields(searched_loops(g)), g.method_id
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
        assert loop_fields(loops) == loop_fields(searched_loops(g))
        for loop in loops:
            around = [o for o in loops if loop.body < o.body]
            smallest = min(around, key=lambda o: len(o.body), default=None)
            assert loop.parent == (smallest.id if smallest else None)
            assert loop.children == tuple(c.id for c in loops if c.parent == loop.id)


def test_control_dependence_matches_the_node_removal_oracle():
    for g in oracle_cfgs():
        pdom = brute_dominator_sets(g.exit, g.preds)
        expected = {}
        for b, s in enumerate(g.nodes):
            if not isinstance(s, BRANCHES):
                continue
            deps = {
                n
                for n in range(len(g.nodes))
                if not (n in pdom[b] and n != b) and any(n in pdom[s] for s in g.succs[b])
            }
            if deps:
                expected[b] = deps
        assert control_dependents(g) == expected


# Each case numbers its nodes in source order: entry 0, exit 1, then one id
# per statement from 2, a branch before the arm or body it guards. The
# expected sets name each node's governing branches by those ids.
GOVERNING_CASES = {
    "return in an else arm": (
        """
method m(a: int, b: int): int {
  var x: int;
  if a < b then { x := a; } else { return b; }
  x := b;
  return x;
}
""",
        # if 2, x := a 3, return b 4, x := b 5, return x 6
        [set(), set(), set(), {2}, {2}, {2}, {2}],
    ),
    "returning if inside a loop body": (
        """
method m(a: int, b: int): int {
  var x: int;
  x := a;
  while x < b do {
    if a < x then { return x; }
    x := b;
  }
  return x;
}
""",
        # x := a 2, while 3, if 4, return x 5, x := b 6, return x 7
        [set(), set(), set(), {3, 4}, {3, 4}, {3, 4}, {3, 4}, {3, 4}],
    ),
    "what follows an if takes what its falling-through arm gathered": (
        """
method m(a: int, b: int): int {
  var x: int;
  if a < b then {
    if x < b then { return x; }
    x := a;
  }
  x := b;
  return x;
}
""",
        # outer if 2, inner if 3, return x 4, x := a 5, x := b 6, return x 7
        [set(), set(), set(), {2}, {2, 3}, {2, 3}, {2, 3}, {2, 3}],
    ),
    "while whose body always returns": (
        """
method m(a: int, b: int): int {
  var x: int;
  x := a;
  while a < b do { return x; }
  return b;
}
""",
        # x := a 2, while 3, return x 4, return b 5
        [set(), set(), set(), set(), {3}, {3}],
    ),
    "return in an inner loop governs the outer header": (
        """
method m(a: int, b: int): int {
  var x: int;
  x := a;
  while x < b do {
    while a < x do {
      if x < b then { return x; }
      x := b;
    }
    x := a;
  }
  return x;
}
""",
        # x := a 2, outer while 3, inner while 4, if 5, return x 6, x := b 7,
        # x := a 8, return x 9
        [set(), set(), set()] + [{3, 4, 5}] * 7,
    ),
}


@pytest.mark.parametrize("src, expected", GOVERNING_CASES.values(), ids=GOVERNING_CASES)
def test_recorded_governing_branches_on_hand_written_cases(src, expected):
    g = cfg_of(src)
    assert [set(set_bits(mask)) for mask in governing_branches(g)] == expected
    assert governing_branches(g) == reference_governing(g)


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
        assert governing_branches(g) == reference_governing(g)
        trans = [frozenset(set_bits(mask)) for mask in governing_branches(g)]
        for b, nodes in direct.items():
            for n in nodes:
                assert b in trans[n]
        assert trans == closure_of(direct, len(g.nodes))
