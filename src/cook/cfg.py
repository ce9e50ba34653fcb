"""Per-method control-flow graphs, loops, and control dependence.

The graph is built structurally: assignments, calls, and returns become nodes
with one successor, each condition becomes a branch node whose successor list
is ordered [true, false], and every return feeds one synthetic exit node. A
node is its statement: `Cfg.nodes[i]` holds node i's statement, the `IfElse`
or `While` for a branch node, and None for entry and exit.

Nodes are numbered in source order: entry 0, exit 1, and every statement the
next id when it is reached, a branch before the arm or body it guards.
`build_cfg` records what the dominator tree, the loops and the dependence
analysis need as it numbers the nodes, from the structure of the source, so
no search of the graph runs. Read with exit last, the numbering is a weak
topological order: every edge runs to a larger id except a back edge into a
`while` header, which comes from that `while`'s own id range, and a return
into exit. So every node's dominators come before it, and a `while`'s body
comes before its continuation.

Governing branches (`Cfg.governing`). Each node's int bitset of the branch
ids it transitively control-depends on, recorded by these rules. A node
takes the bits of the block it is in; each `if` arm and each `while` body
adds its own branch's bit. After an `if` or `while` that holds a return
anywhere inside, what follows also takes that branch's bit, and what follows
an `if` also takes the bits its falling-through arms gathered from such
constructs. If a `while`'s body falls through, the header takes its own bit,
and every node of its id range and what follows take the bits that govern
the end of its body, which hold those of the returning constructs in it: one
OR per node per enclosing loop. These are the sets that the control
dependence of Ferrante, Ottenstein and Warren (TOPLAS 1987), closed
transitively, gives: node n depends on branch b when n post-dominates some
successor of b but does not strictly post-dominate b itself. The tests hold
the record to that definition, computed over post-dominators.

Dominators (`Cfg.idom`). Translating a block also yields the node that
dominates every source of the block's outgoing edges: a plain statement
itself, a `while` its header, an `if` its branch when both arms fall through
and otherwise what its one falling-through arm yielded. A new node's
immediate dominator is that node for the edges patched into it. The back
edges into a `while` come from nodes its header dominates, so they leave the
header's dominator as it is. Exit's is the nearest common dominator of the
returns; every other node's dominator was numbered before it, so that walk
needs no depth. `dominator_tree` numbers the dominator tree in preorder, in
two sweeps of the ids with exit last, so whether one node dominates another
is two comparisons of those numbers instead of a walk up the tree.

Loops (`Cfg.whiles`, `Cfg.returning`). Every loop of a Carib method is a
`while`, its header the `while`'s branch node and its nodes one range of
ids. A node of that range lies off the loop's natural body only when every
path from it returns, that is when it lies in a block inside the `while`'s
body that returns on every path; `build_cfg` records the id range of each
such block. A `while` whose body returns on every path has no back edge and
is no loop. A loop nests in the loop of its nearest enclosing `while` when
that body holds its header; otherwise no loop holds it. `find_loops` turns
the record into `LoopInfo`s, and each loop lists its children once
(`LoopInfo.children`), for the termination oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import CheckDiagnostic
from .lang import ast
from .values import value

# the statements whose node is a branch, with successors [true, false]
BRANCHES = (ast.IfElse, ast.While)


@dataclass(slots=True)
class Cfg:
    method_id: str
    # each node's statement; None for entry and exit
    nodes: list[ast.Stmt | None] = field(default_factory=list)
    succs: list[list[int]] = field(default_factory=list)
    preds: list[list[int]] = field(default_factory=list)
    idom: list[int] = field(default_factory=list)  # immediate dominator; entry's is entry
    # per node, the bitset of the branches it transitively control-depends on
    governing: list[int] = field(default_factory=list)
    # per `while`, by header: (header, end of its id range, index of the
    # nearest enclosing `while` or -1)
    whiles: list[tuple[int, int, int]] = field(default_factory=list)
    # [first, end) of each block inside a `while`'s body that returns on
    # every path, by first id
    returning: list[tuple[int, int]] = field(default_factory=list)

    entry: ClassVar[int] = 0
    exit: ClassVar[int] = 1


def build_cfg(m: ast.Method) -> Cfg:
    """Structured translation; requires a body that returns on every path.
    The node list holds the statements themselves, None for entry and exit.
    Each node's immediate dominator and governing branches, and each
    `while`'s loop, are recorded as the nodes are numbered; see the module
    docstring."""
    g = Cfg(m.id, [None, None], [[-1], []], [[], []])
    nodes, succs, preds, exit_ = g.nodes, g.succs, g.preds, g.exit
    idom = [g.entry, -1]
    governing = [0, 0]
    returns: list[int] = []
    whiles: list = []
    returning: list[tuple[int, int]] = []

    # A frontier is a list of reserved (node, slot) edges waiting for a target.
    def patch(frontier: list[tuple[int, int]], v: int) -> None:
        for u, slot in frontier:
            succs[u][slot] = v
            preds[v].append(u)

    def add(s: ast.Stmt, frontier: list, dom: int, mask: int, row: list[int]) -> int:
        """A node for `s` governed by `mask`, with successor slots `row`,
        entered by `frontier`."""
        n = len(nodes)
        nodes.append(s)
        succs.append(row)
        preds.append([])
        idom.append(dom)
        governing.append(mask)
        patch(frontier, n)
        return n

    def build(
        block: ast.Block, frontier: list[tuple[int, int]], dom: int, mask: int, inside: int
    ) -> tuple[list[tuple[int, int]], int, int]:
        """Translate `block`, entered by the `frontier` edges, all of whose
        sources `dom` dominates, governed by the branches of `mask`, inside
        the `while` numbered `inside` (-1 for none). Returns the block's own
        frontier, the node that dominates every source of its edges, and the
        branches that govern what follows it."""
        first = len(nodes)
        for s in block:
            if not frontier:
                raise CheckDiagnostic("unreachable statement", s.loc.line, s.loc.col, s.loc.file)
            if isinstance(s, ast.IfElse):
                b = add(s, frontier, dom, mask, [-1, -1])
                bit = 1 << b
                held = len(returns)
                then_out, then_dom, then_mask = build(s.then_body, [(b, 0)], b, mask | bit, inside)
                else_out, else_dom, else_mask = build(s.else_body, [(b, 1)], b, mask | bit, inside)
                frontier = then_out + else_out
                if then_out and else_out:
                    dom = b
                else:
                    dom = then_dom if then_out else else_dom
                if len(returns) > held:
                    # what follows is reached through the arms that fall
                    # through, each of which holds `mask | bit`
                    mask = (then_mask if then_out else 0) | (else_mask if else_out else 0)
            elif isinstance(s, ast.While):
                b = add(s, frontier, dom, mask, [-1, -1])
                bit = 1 << b
                w = len(whiles)
                whiles.append(None)  # filled in once the body is numbered
                held = len(returns)
                body_out, _, body_mask = build(s.body, [(b, 0)], b, mask | bit, w)
                end = len(nodes)
                whiles[w] = (b, end, inside)
                if body_out:
                    patch(body_out, b)  # back edges (self loop when the body is empty)
                    # the header governs itself around the back edges, and
                    # through it every node of the loop takes the branches
                    # that govern the end of its body
                    for n in range(b, end):
                        governing[n] |= body_mask
                if len(returns) > held:
                    mask = body_mask if body_out else mask | bit
                frontier = [(b, 1)]
                dom = b
            elif isinstance(s, ast.Return):
                n = add(s, frontier, dom, mask, [exit_])
                preds[exit_].append(n)
                returns.append(n)
                frontier = []
            else:
                dom = add(s, frontier, dom, mask, [-1])
                frontier = [(dom, 0)]
        if not frontier and inside >= 0:
            returning.append((first, len(nodes)))
        return frontier, dom, mask

    tail, _, _ = build(m.body, [(g.entry, 0)], g.entry, 0, -1)
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
    g.governing = governing
    g.whiles = whiles
    # a block's range is recorded once its nodes are numbered, after the
    # blocks inside it
    g.returning = sorted(returning)
    return g


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


@value
class DomTree:
    """The dominator tree from entry, numbered in preorder: `pre` is each
    node's position and `end` one past the last position of its subtree, so
    a node dominates exactly the nodes whose position lies in its own
    interval."""

    pre: list[int]
    end: list[int]

    def dominates(self, a: int, b: int) -> bool:
        """True when `a` dominates `b`; every node dominates itself."""
        return self.pre[a] <= self.pre[b] < self.end[a]


def dominator_tree(g: Cfg) -> DomTree:
    """Number the tree of `g.idom` in time linear in the graph. A node's
    immediate dominator comes before it in the ids with exit last, so one
    backward sweep below entry sums the subtree sizes and one forward sweep
    gives each child the next free interval inside its parent's."""
    idom = g.idom
    below = [*range(2, len(g.nodes)), g.exit]
    size = [1] * len(g.nodes)
    for n in reversed(below):
        size[idom[n]] += size[n]
    pre = [0] * len(g.nodes)
    # the first position in each interval not yet given out; entry, the root,
    # keeps position 0
    free = [1] * len(g.nodes)
    for n in below:
        d = idom[n]
        pre[n] = first = free[d]
        free[d] = first + size[n]
        free[n] = first + 1
    return DomTree(pre, [p + k for p, k in zip(pre, size)])


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LoopInfo:
    id: int
    header: int
    body: frozenset[int]
    parent: int | None = None
    depth: int = 1
    children: tuple[int, ...] = ()  # the loops whose parent this is, by id


def find_loops(g: Cfg) -> list[LoopInfo]:
    """The loops `build_cfg` recorded, by header: each `while` whose body
    does not return on every path, with its natural body, its parent loop and
    its children by id; see the module docstring."""
    returning = g.returning
    loops: list[LoopInfo] = []
    of_while: list[LoopInfo | None] = []
    for header, end, outer in g.whiles:
        i = bisect_left(returning, (header + 1,))
        if returning[i : i + 1] == [(header + 1, end)]:
            of_while.append(None)  # no back edge
            continue
        body = [header]
        at = header + 1
        for first, last in returning[i:]:
            if first >= end:
                break
            if first >= at:  # not inside the block left out before it
                body += range(at, first)
                at = last
        body += range(at, end)
        loop = LoopInfo(len(loops), header, frozenset(body))
        parent = of_while[outer] if outer >= 0 else None
        if parent is not None and header in parent.body:
            loop.parent, loop.depth = parent.id, parent.depth + 1
        of_while.append(loop)
        loops.append(loop)
    children: list[list[int]] = [[] for _ in loops]
    for loop in loops:
        if loop.parent is not None:
            children[loop.parent].append(loop.id)
    for loop, ids in zip(loops, children):
        loop.children = tuple(ids)
    return loops


# ---------------------------------------------------------------------------
# control dependence
# ---------------------------------------------------------------------------


def set_bits(mask: int):
    """Positions of the set bits of `mask`, lowest first."""
    bits = bin(mask)[:1:-1]
    k = bits.find("1")
    while k >= 0:
        yield k
        k = bits.find("1", k + 1)


def governing_branches(g: Cfg) -> list[int]:
    """For each node, the bitset of the branches it transitively
    control-depends on, as `build_cfg` recorded it."""
    return g.governing


def to_dot(g: Cfg, describe) -> str:
    """Render the graph in DOT; `describe(id, statement)` supplies labels."""
    lines = [f'digraph "{g.method_id}" {{']
    for n, s in enumerate(g.nodes):
        label = describe(n, s).replace('"', "'")
        shape = "diamond" if isinstance(s, BRANCHES) else "box"
        lines.append(f'  n{n} [label="{label}", shape={shape}];')
    for u, row in enumerate(g.succs):
        branch = isinstance(g.nodes[u], BRANCHES)
        for i, v in enumerate(row):
            suffix = f' [label="{"TF"[i]}"]' if branch else ""
            lines.append(f"  n{u} -> n{v}{suffix};")
    lines.append("}")
    return "\n".join(lines)
