"""Per-method control-flow graphs, loop discovery, and control dependence.

The graph is built structurally: assignments, calls, and returns become nodes
with one successor, each condition becomes a branch node whose successor list
is ordered [true, false], and every return feeds one synthetic exit node.

`build_cfg` keeps the reverse postorder from entry on the `Cfg` (`order`,
and each node's position in it, `rank`); the loop finder, the dominator tree
and the dependence analysis read that one order. Loops are discovered from
DFS back edges, the edges that do not run forward in `order`, and their
natural bodies; the finder does not assume reducibility even though
structured source always produces natural loops. Control dependence uses
the classic post-dominator tree walk: node n depends on branch b when n
post-dominates some successor of b but does not strictly post-dominate b
itself.

Dominators and post-dominators come from the iterative algorithm of Cooper,
Harvey and Kennedy ("A Simple, Fast Dominance Algorithm", 2001): intersect
dominator-tree paths in reverse postorder until nothing changes, with the
order index and the immediate dominators in flat lists indexed by node id.
Only the post-dominators search an order of their own, from exit over the
reversed graph. `dominator_tree` numbers the dominator tree in preorder,
in two sweeps of the reverse postorder, so whether one node dominates
another is two comparisons of those numbers instead of a walk up the tree.
`governing_branches` closes control dependence over int bitsets of branch
ids.

`find_loops` nests each loop in the smallest loop whose body strictly
contains its own; only the loops whose body holds its header can, so nesting
costs the sum of the loops' bodies, not the square of their number. Each loop
lists its children once (`LoopInfo.children`), for the termination oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CheckDiagnostic
from .lang import ast
from .values import value

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
BRANCH = "branch"


@dataclass(slots=True)
class CfgNode:
    id: int
    kind: str  # entry | exit | stmt | branch
    stmt: ast.Stmt | None = None  # owning While/IfElse for branch nodes
    cond: ast.Cond | None = None
    loc: ast.Loc = ast.UNKNOWN_LOC


@dataclass(slots=True)
class Cfg:
    method_id: str
    nodes: list[CfgNode] = field(default_factory=list)
    succs: list[list[int]] = field(default_factory=list)
    preds: list[list[int]] = field(default_factory=list)
    entry: int = 0
    exit: int = 0
    order: list[int] = field(default_factory=list)  # reverse postorder from entry
    rank: list[int] = field(default_factory=list)  # each node's position in `order`

    def add(self, kind: str, stmt: ast.Stmt | None = None, cond: ast.Cond | None = None) -> int:
        nid = len(self.nodes)
        loc = stmt.loc if stmt is not None else ast.UNKNOWN_LOC
        self.nodes.append(CfgNode(nid, kind, stmt, cond, loc))
        self.succs.append([])
        self.preds.append([])
        return nid


def build_cfg(m: ast.Method) -> Cfg:
    """Structured translation; requires a body that returns on every path."""
    g = Cfg(m.id)
    g.entry = g.add(ENTRY)
    g.exit = g.add(EXIT)

    # A frontier is a list of reserved (node, slot) edges waiting for a target.
    def new_edge(u: int) -> tuple[int, int]:
        g.succs[u].append(-1)
        return u, len(g.succs[u]) - 1

    def patch(frontier: list[tuple[int, int]], v: int) -> None:
        for u, slot in frontier:
            g.succs[u][slot] = v
            g.preds[v].append(u)

    def build(block: ast.Block, frontier: list[tuple[int, int]]) -> list[tuple[int, int]]:
        for s in block:
            if not frontier:
                raise CheckDiagnostic("unreachable statement", s.loc.line, s.loc.col, s.loc.file)
            if isinstance(s, ast.IfElse):
                b = g.add(BRANCH, s, s.cond)
                patch(frontier, b)
                true_edge = new_edge(b)
                false_edge = new_edge(b)
                then_out = build(s.then_body, [true_edge])
                else_out = build(s.else_body, [false_edge])
                frontier = then_out + else_out
            elif isinstance(s, ast.While):
                b = g.add(BRANCH, s, s.cond)
                patch(frontier, b)
                true_edge = new_edge(b)
                false_edge = new_edge(b)
                body_out = build(s.body, [true_edge])
                patch(body_out, b)  # back edges (self loop when the body is empty)
                frontier = [false_edge]
            elif isinstance(s, ast.Return):
                n = g.add(STMT, s)
                patch(frontier, n)
                patch([new_edge(n)], g.exit)
                frontier = []
            else:
                n = g.add(STMT, s)
                patch(frontier, n)
                frontier = [new_edge(n)]
        return frontier

    tail = build(m.body, [new_edge(g.entry)])
    if tail:
        raise CheckDiagnostic(
            f"method {m.id!r} can fall off its end", m.loc.line, m.loc.col, m.loc.file
        )
    g.order, g.rank = reverse_postorder(g.entry, g.succs)
    return g


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def reverse_postorder(start: int, succs: list[list[int]]) -> tuple[list[int], list[int]]:
    """The nodes reachable from `start` in reverse postorder of a depth-first
    search that takes each row of `succs` in order, and each node's position
    in that order (0 for an unreachable node). Every edge that is not a back
    edge goes from an earlier node to a later one."""
    seen = [False] * len(succs)
    seen[start] = True
    order: list[int] = []
    stack = [(start, iter(succs[start]))]
    while stack:
        node, row = stack[-1]
        for nxt in row:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, iter(succs[nxt])))
                break
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    rank = [0] * len(succs)
    for i, n in enumerate(order):
        rank[n] = i
    return order, rank


def _idoms(order: list[int], rank: list[int], preds: list[list[int]]) -> list[int]:
    """Immediate dominators from `order[0]` by the iterative algorithm of
    Cooper, Harvey and Kennedy over the reverse postorder `order` and its
    `rank`, as `reverse_postorder` returns them; -1 for unreachable nodes."""
    idom = [-1] * len(preds)
    idom[order[0]] = order[0]
    changed = True
    while changed:
        changed = False
        for n in order[1:]:
            new = -1
            for p in preds[n]:
                if idom[p] < 0:
                    continue  # not processed yet, or unreachable
                if new < 0:
                    new = p
                    continue
                a = p  # intersect the two dominator-tree paths
                while a != new:
                    while rank[a] > rank[new]:
                        a = idom[a]
                    while rank[new] > rank[a]:
                        new = idom[new]
            if idom[n] != new:
                idom[n] = new
                changed = True
    return idom


def dominators(g: Cfg) -> dict[int, int]:
    """Immediate dominators from entry; unreachable nodes are absent."""
    idom = _idoms(g.order, g.rank, g.preds)
    return {n: d for n, d in enumerate(idom) if d >= 0}


def _post_idoms(g: Cfg) -> list[int]:
    idom = _idoms(*reverse_postorder(g.exit, g.preds), g.succs)
    if -1 in idom:
        raise CheckDiagnostic(f"exit unreachable from some node in {g.method_id!r}")
    return idom


def post_dominators(g: Cfg) -> dict[int, int]:
    """Immediate post-dominators from exit over the reversed graph."""
    return dict(enumerate(_post_idoms(g)))


@value
class DomTree:
    """The dominator tree from entry, numbered in preorder: `pre` is each
    node's position and `end` one past the last position of its subtree
    (both -1 for an unreachable node), so a node dominates exactly the nodes
    whose position lies in its own interval."""

    pre: list[int]
    end: list[int]

    def dominates(self, a: int, b: int) -> bool:
        """True when `a` dominates `b`; every node dominates itself."""
        return self.pre[a] <= self.pre[b] < self.end[a]


def dominator_tree(g: Cfg) -> DomTree:
    """Number the tree of `dominators(g)` in time linear in the graph. A
    node's immediate dominator comes before it in `g.order`, so one backward
    sweep sums the subtree sizes and one forward sweep gives each child the
    next free interval inside its parent's."""
    idom = dominators(g)
    below = g.order[1:]
    size = [1] * len(g.nodes)
    for n in reversed(below):
        size[idom[n]] += size[n]
    pre = [-1] * len(g.nodes)
    free = pre.copy()  # the first position in each interval not yet given out
    root = g.order[0]
    pre[root], free[root] = 0, 1
    for n in below:
        d = idom[n]
        pre[n] = first = free[d]
        free[d] = first + size[n]
        free[n] = first + 1
    return DomTree(pre, [p + k if p >= 0 else -1 for p, k in zip(pre, size)])


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LoopInfo:
    id: int
    header: int
    body: frozenset[int]
    back_edges: tuple[tuple[int, int], ...]
    parent: int | None = None
    depth: int = 1
    stmt: ast.While | None = None  # the While statement when structurally known
    children: tuple[int, ...] = ()  # the loops whose parent this is, by id


def find_loops(g: Cfg) -> list[LoopInfo]:
    """Every back-edge-induced natural loop, with nesting by body containment:
    a loop's parent is the smallest loop whose body strictly contains its
    body, the first by id on a tie, and its children are the loops it
    parents, by id.

    Complete (a LoopInfo covers both endpoints of every DFS back edge) but
    oblivious to feasibility: statically dead cycles are still reported. The
    back edges are those of the search behind `g.order`: the edges that do
    not go from an earlier node to a later one, self loops included.
    """
    by_header: dict[int, list[tuple[int, int]]] = {}
    for u in g.order:
        for h in g.succs[u]:  # a duplicated edge is listed twice
            if g.rank[h] <= g.rank[u]:
                by_header.setdefault(h, []).append((u, h))

    loops: list[LoopInfo] = []
    for header in sorted(by_header):
        body = {header}
        work = [u for u, _ in by_header[header] if u != header]
        body.update(work)
        while work:
            n = work.pop()
            for p in g.preds[n]:
                if p not in body:
                    body.add(p)
                    work.append(p)
        stmt = None
        node = g.nodes[header]
        if node.kind == BRANCH and isinstance(node.stmt, ast.While):
            stmt = node.stmt
        loops.append(
            LoopInfo(
                id=len(loops),
                header=header,
                body=frozenset(body),
                back_edges=tuple(sorted(by_header[header])),
                stmt=stmt,
            )
        )

    # nesting: the parent is the smallest strictly containing body, which
    # holds the child's header, so only the loops around each header compete
    at_header = {loop.header: loop for loop in loops}
    around: list[list[LoopInfo]] = [[] for _ in loops]
    for outer in loops:
        for n in outer.body:
            inner = at_header.get(n)
            if inner is not None and inner is not outer:
                around[inner.id].append(outer)
    children: list[list[int]] = [[] for _ in loops]
    for loop in loops:
        best = None
        for other in around[loop.id]:
            if loop.body < other.body and (best is None or len(other.body) < len(best.body)):
                best = other
        if best is not None:
            loop.parent = best.id
            children[best.id].append(loop.id)
    for loop in loops:
        loop.children = tuple(children[loop.id])
        depth, cur = 1, loop.parent
        while cur is not None:
            depth += 1
            cur = loops[cur].parent
        loop.depth = depth
    return loops


# ---------------------------------------------------------------------------
# control dependence
# ---------------------------------------------------------------------------


def _direct_masks(g: Cfg) -> list[int]:
    """Per node, the bitset of the branches it directly control-depends on."""
    ipdom = _post_idoms(g)
    on = [0] * len(g.nodes)
    for b, node in enumerate(g.nodes):
        if node.kind != BRANCH:
            continue
        bit, stop = 1 << b, ipdom[b]
        for s in g.succs[b]:
            runner = s
            while runner != stop:
                on[runner] |= bit
                runner = ipdom[runner]
    return on


def set_bits(mask: int):
    """Positions of the set bits of `mask`, lowest first."""
    bits = bin(mask)[:1:-1]
    k = bits.find("1")
    while k >= 0:
        yield k
        k = bits.find("1", k + 1)


def control_dependents(g: Cfg) -> dict[int, set[int]]:
    """Direct control dependence: branch node -> set of dependent nodes."""
    deps: dict[int, set[int]] = {}
    for n, mask in enumerate(_direct_masks(g)):
        for b in set_bits(mask):
            deps.setdefault(b, set()).add(n)
    return deps


def governing_branches(g: Cfg) -> list[frozenset[int]]:
    """For each node, the branches it transitively control-depends on; nodes
    with the same set share one `frozenset`."""
    on = _direct_masks(g)
    # close over the branches first; branch-on-branch edges may form cycles
    # (loop headers)
    branches = [b for b, node in enumerate(g.nodes) if node.kind == BRANCH and on[b]]
    changed = True
    while changed:
        changed = False
        for b in branches:
            mask = on[b]
            closed = mask
            for c in set_bits(mask):
                closed |= on[c]
            if closed != mask:
                on[b] = closed
                changed = True
    sets: dict[int, frozenset[int]] = {}
    out: list[frozenset[int]] = []
    for n, mask in enumerate(on):
        got = sets.get(mask)
        if got is None:
            closed = mask
            for b in set_bits(mask):
                closed |= on[b]
            got = sets[mask] = frozenset(set_bits(closed))
        out.append(got)
    return out


def to_dot(g: Cfg, describe) -> str:
    """Render the graph in DOT; `describe(node)` supplies labels."""
    lines = [f'digraph "{g.method_id}" {{']
    for n in g.nodes:
        label = describe(n).replace('"', "'")
        shape = "diamond" if n.kind == BRANCH else "box"
        lines.append(f'  n{n.id} [label="{label}", shape={shape}];')
    for u, row in enumerate(g.succs):
        for i, v in enumerate(row):
            suffix = ""
            if g.nodes[u].kind == BRANCH:
                suffix = f' [label="{"TF"[i]}"]'
            lines.append(f"  n{u} -> n{v}{suffix};")
    lines.append("}")
    return "\n".join(lines)
