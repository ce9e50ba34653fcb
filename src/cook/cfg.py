"""Per-method control-flow graphs, loop discovery, and control dependence.

The graph is built structurally: assignments, calls, and returns become nodes
with one successor, each condition becomes a branch node whose successor list
is ordered [true, false], and every return feeds one synthetic exit node.

Loops are discovered from DFS back edges and their natural bodies; the finder
does not assume reducibility even though structured source always produces
natural loops. Control dependence uses the classic post-dominator tree walk:
node n depends on branch b when n post-dominates some successor of b but does
not strictly post-dominate b itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CheckDiagnostic
from .lang import ast

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
    return g


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def _reverse_postorder(start: int, succs) -> list[int]:
    order: list[int] = []
    seen = {start}
    stack: list[tuple[int, int]] = [(start, 0)]
    while stack:
        node, i = stack[-1]
        row = succs(node)
        if i < len(row):
            stack[-1] = (node, i + 1)
            nxt = row[i]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def _idoms(start: int, succs, preds) -> dict[int, int]:
    """Iterative immediate-dominator computation (intersection on RPO)."""
    order = _reverse_postorder(start, succs)
    index = {n: i for i, n in enumerate(order)}
    idom: dict[int, int] = {start: start}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for n in order:
            if n == start:
                continue
            candidates = [p for p in preds(n) if p in idom]
            if not candidates:
                continue
            new = candidates[0]
            for p in candidates[1:]:
                new = intersect(new, p)
            if idom.get(n) != new:
                idom[n] = new
                changed = True
    return idom


def dominators(g: Cfg) -> dict[int, int]:
    """Immediate dominators from entry; unreachable nodes are absent."""
    return _idoms(g.entry, lambda n: g.succs[n], lambda n: g.preds[n])


def post_dominators(g: Cfg) -> dict[int, int]:
    """Immediate post-dominators from exit over the reversed graph."""
    idoms = _idoms(g.exit, lambda n: g.preds[n], lambda n: g.succs[n])
    if len(idoms) != len(g.nodes):
        raise CheckDiagnostic(f"exit unreachable from some node in {g.method_id!r}")
    return idoms


def dominates(idom: dict[int, int], root: int, a: int, b: int) -> bool:
    """True when `a` (post-)dominates `b` under the given immediate-dom map."""
    cur = b
    while True:
        if cur == a:
            return True
        if cur == root:
            return False
        cur = idom[cur]


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
    stmt: ast.Stmt | None = None  # the While statement when structurally known


def find_loops(g: Cfg) -> list[LoopInfo]:
    """Every back-edge-induced natural loop, with nesting by body containment.

    Complete (a LoopInfo covers both endpoints of every DFS back edge) but
    oblivious to feasibility: statically dead cycles are still reported.
    """
    back_edges: list[tuple[int, int]] = []
    state = [0] * len(g.nodes)  # 0 unvisited, 1 on stack, 2 done
    stack: list[tuple[int, int]] = [(g.entry, 0)]
    state[g.entry] = 1
    while stack:
        node, i = stack[-1]
        row = g.succs[node]
        if i < len(row):
            stack[-1] = (node, i + 1)
            nxt = row[i]
            if state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, 0))
            elif state[nxt] == 1:
                back_edges.append((node, nxt))
        else:
            state[node] = 2
            stack.pop()

    by_header: dict[int, list[tuple[int, int]]] = {}
    for u, h in back_edges:
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

    # nesting: parent is the smallest strictly containing body
    for loop in loops:
        best = None
        for other in loops:
            if other is not loop and loop.body < other.body:
                if best is None or len(other.body) < len(loops[best].body):
                    best = other.id
        loop.parent = best
    for loop in loops:
        depth, cur = 1, loop.parent
        while cur is not None:
            depth += 1
            cur = loops[cur].parent
        loop.depth = depth
    return loops


# ---------------------------------------------------------------------------
# control dependence
# ---------------------------------------------------------------------------


def control_dependents(g: Cfg) -> dict[int, set[int]]:
    """Direct control dependence: branch node -> set of dependent nodes."""
    ipdom = post_dominators(g)
    deps: dict[int, set[int]] = {}
    for b, node in enumerate(g.nodes):
        if node.kind != BRANCH:
            continue
        out: set[int] = set()
        stop = ipdom[b]
        for s in g.succs[b]:
            runner = s
            while runner != stop:
                out.add(runner)
                runner = ipdom[runner]
        if out:
            deps[b] = out
    return deps


def governing_branches(g: Cfg) -> list[frozenset[int]]:
    """For each node, the branches it transitively control-depends on."""
    on: list[set[int]] = [set() for _ in g.nodes]
    for b, nodes in control_dependents(g).items():
        for n in nodes:
            on[n].add(b)
    # close transitively; branch-on-branch edges may form cycles (loop headers)
    changed = True
    while changed:
        changed = False
        for n in range(len(g.nodes)):
            extra: set[int] = set()
            for b in on[n]:
                extra |= on[b]
            if not extra <= on[n]:
                on[n] |= extra
                changed = True
    return [frozenset(s) for s in on]


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
