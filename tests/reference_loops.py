"""Loops as `cook.cfg.find_loops` found them before `build_cfg` recorded
them, kept as the reference for `tests/test_cfg.py`: a search of the graph
for its back edges, a backward search for each natural body, and nesting by
body containment. The loops it reports carry their back edges as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from cook.cfg import Cfg
from reference_dominance import reverse_postorder


@dataclass(slots=True)
class ReferenceLoop:
    id: int
    header: int
    body: frozenset[int]
    back_edges: tuple[tuple[int, int], ...]
    parent: int | None = None
    depth: int = 1
    children: tuple[int, ...] = ()


def find_loops(g: Cfg) -> list[ReferenceLoop]:
    """Every back-edge-induced natural loop, with nesting by body containment:
    a loop's parent is the smallest loop whose body strictly contains its
    body, the first by id on a tie, and its children are the loops it
    parents, by id.

    Complete (a loop covers both endpoints of every DFS back edge) but
    oblivious to feasibility: statically dead cycles are still reported. The
    back edges are those of a depth-first search from entry: the edges that
    do not go from an earlier node to a later one in its reverse postorder,
    self loops included.
    """
    order, rank = reverse_postorder(g.entry, g.succs)
    by_header: dict[int, list[tuple[int, int]]] = {}
    for u in order:
        for h in g.succs[u]:  # a duplicated edge is listed twice
            if rank[h] <= rank[u]:
                by_header.setdefault(h, []).append((u, h))

    loops: list[ReferenceLoop] = []
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
        loops.append(
            ReferenceLoop(
                id=len(loops),
                header=header,
                body=frozenset(body),
                back_edges=tuple(sorted(by_header[header])),
            )
        )

    # nesting: the parent is the smallest strictly containing body, which
    # holds the child's header, so only the loops around each header compete
    at_header = {loop.header: loop for loop in loops}
    around: list[list[ReferenceLoop]] = [[] for _ in loops]
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


def loop_fields(loops) -> list[tuple]:
    """What the recorded loops and the reference must agree on: every field
    but the reference's back edges."""
    return [(l.id, l.header, l.body, l.parent, l.depth, l.children) for l in loops]
