"""Per-method control-flow graphs, loop discovery, and control dependence.

The graph is built structurally: assignments, calls, and returns become nodes
with one successor, each condition becomes a branch node whose successor list
is ordered [true, false], and every return feeds one synthetic exit node.

`build_cfg` keeps the reverse postorder from entry on the `Cfg` (`order`,
and each node's position in it, `rank`); the loop finder, the dominator tree
and the dependence analysis read that one order, the only search of the
graph. Loops are discovered from DFS back edges, the edges that do not run
forward in `order`, and their natural bodies; the finder does not assume
reducibility even though structured source always produces natural loops.
Control dependence uses the post-dominator tree walk of Ferrante, Ottenstein
and Warren (TOPLAS 1987): node n depends on branch b when n post-dominates
some successor of b but does not strictly post-dominate b itself.

`build_cfg` records each node's immediate dominator (`Cfg.idom`) and
immediate post-dominator (`Cfg.ipdom`) as it numbers the nodes, from the
structure of the source; no search of the graph finds them.

Post-dominators. A statement that is not a branch is post-dominated by its
only successor, a return by exit. An `if` or `while` whose construct holds a
return anywhere inside is post-dominated by exit alone: one path leaves it
through that return, and another leaves it without entering the arm or body
that holds it. Any other construct is post-dominated by its continuation,
the node its outgoing edges are patched to; the false edge's target for a
`while`. The construct carries the pseudo-edge (branch, -1) in its frontier
until then.

Dominators. Translating a block also yields the node that dominates every
source of the block's outgoing edges: a plain statement itself, a `while`
its header, an `if` its branch when both arms fall through and otherwise
what its one falling-through arm yielded. A new node's immediate dominator
is that node for the edges patched into it. The back edges into a `while`
come from nodes its header dominates, so they leave the header's dominator
as it is. Exit's is the nearest common dominator of the returns; every
other node's dominator was numbered before it, so that walk needs no depth.
`dominator_tree` numbers the dominator tree in preorder, in two sweeps of
the reverse postorder, so whether one node dominates another is two
comparisons of those numbers instead of a walk up the tree.
`governing_branches` closes control dependence over int bitsets of branch
ids and gives each node its closed bitset.

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
    exit: int = 1
    order: list[int] = field(default_factory=list)  # reverse postorder from entry
    rank: list[int] = field(default_factory=list)  # each node's position in `order`
    idom: list[int] = field(default_factory=list)  # immediate dominator; entry's is entry
    ipdom: list[int] = field(default_factory=list)  # immediate post-dominator; exit's is exit


def build_cfg(m: ast.Method) -> Cfg:
    """Structured translation; requires a body that returns on every path.
    Each node's immediate dominator and post-dominator are recorded as the
    node is numbered; see the module docstring."""
    g = Cfg(m.id, [CfgNode(0, ENTRY), CfgNode(1, EXIT)], [[-1], []], [[], []])
    nodes, succs, preds, exit_ = g.nodes, g.succs, g.preds, g.exit
    idom = [g.entry, -1]
    # a branch's stays exit when its construct holds a return; the rows of
    # the other nodes replace theirs at the end
    ipdom = [exit_, exit_]
    returns: list[int] = []

    # A frontier is a list of reserved (node, slot) edges waiting for a
    # target. A construct without a return carries the pseudo-edge
    # (branch, -1): the node its frontier is patched to post-dominates it.
    def patch(frontier: list[tuple[int, int]], v: int) -> None:
        for u, slot in frontier:
            if slot < 0:
                ipdom[u] = v
            else:
                succs[u][slot] = v
                preds[v].append(u)

    def add(kind: str, s: ast.Stmt, frontier: list, dom: int, row: list[int]) -> int:
        """A node for `s` with successor slots `row`, entered by `frontier`."""
        n = len(nodes)
        nodes.append(CfgNode(n, kind, s, s.cond if kind == BRANCH else None, s.loc))
        succs.append(row)
        preds.append([])
        idom.append(dom)
        ipdom.append(exit_)
        patch(frontier, n)
        return n

    def build(
        block: ast.Block, frontier: list[tuple[int, int]], dom: int
    ) -> tuple[list[tuple[int, int]], int]:
        """Translate `block`, entered by the `frontier` edges, all of whose
        sources `dom` dominates. Returns the block's own frontier and the
        node that dominates every source of its edges."""
        for s in block:
            if not frontier:
                raise CheckDiagnostic("unreachable statement", s.loc.line, s.loc.col, s.loc.file)
            if isinstance(s, ast.IfElse):
                b = add(BRANCH, s, frontier, dom, [-1, -1])
                held = len(returns)
                then_out, then_dom = build(s.then_body, [(b, 0)], b)
                else_out, else_dom = build(s.else_body, [(b, 1)], b)
                frontier = then_out + else_out
                if then_out and else_out:
                    dom = b
                else:
                    dom = then_dom if then_out else else_dom
                if len(returns) == held:
                    frontier.append((b, -1))
            elif isinstance(s, ast.While):
                b = add(BRANCH, s, frontier, dom, [-1, -1])
                held = len(returns)
                body_out, _ = build(s.body, [(b, 0)], b)
                patch(body_out, b)  # back edges (self loop when the body is empty)
                frontier = [(b, 1), (b, -1)] if len(returns) == held else [(b, 1)]
                dom = b
            elif isinstance(s, ast.Return):
                n = add(STMT, s, frontier, dom, [exit_])
                preds[exit_].append(n)
                returns.append(n)
                frontier = []
            else:
                dom = add(STMT, s, frontier, dom, [-1])
                frontier = [(dom, 0)]
        return frontier, dom

    tail, _ = build(m.body, [(g.entry, 0)], g.entry)
    # `build` refers to itself; unbinding it frees the closures and the lists
    # they hold now, not at the next full run of the cycle collector
    del build
    if tail:
        raise CheckDiagnostic(
            f"method {m.id!r} can fall off its end", m.loc.line, m.loc.col, m.loc.file
        )
    # exit's dominator is the returns' nearest common one; every other
    # node's dominator has a smaller id
    d = returns[0]
    for r in returns[1:]:
        while r != d:
            if r > d:
                r = idom[r]
            else:
                d = idom[d]
    idom[exit_] = d
    g.idom = idom
    g.ipdom = [row[0] if len(row) == 1 else p for row, p in zip(succs, ipdom)]
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
    """Number the tree of `g.idom` in time linear in the graph. A node's
    immediate dominator comes before it in `g.order`, so one backward sweep
    sums the subtree sizes and one forward sweep gives each child the next
    free interval inside its parent's."""
    idom = g.idom
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
    ipdom = g.ipdom
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


def governing_branches(g: Cfg) -> list[int]:
    """For each node, the bitset of the branches it transitively
    control-depends on."""
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
    closure: dict[int, int] = {}
    out: list[int] = []
    for mask in on:
        closed = closure.get(mask)
        if closed is None:
            closed = mask
            for b in set_bits(mask):
                closed |= on[b]
            closure[mask] = closed
        out.append(closed)
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
