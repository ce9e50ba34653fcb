"""Dominators and post-dominators as `cook.cfg` found them before `build_cfg`
recorded them, kept verbatim as the reference for `tests/test_cfg.py`.

`_idoms` is the iterative algorithm of Cooper, Harvey and Kennedy ("A
Simple, Fast Dominance Algorithm", 2001): intersect dominator-tree paths in
reverse postorder until nothing changes. `dominators` runs it forward over
the reverse postorder from entry, `post_dominators` over the one from exit
on the reversed graph. `reverse_postorder` is the depth-first search
`build_cfg` ran before it kept its own numbering as the graph's order.
"""

from __future__ import annotations

from cook.cfg import Cfg
from cook.errors import CheckDiagnostic


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
    idom = _idoms(*reverse_postorder(g.entry, g.succs), g.preds)
    return {n: d for n, d in enumerate(idom) if d >= 0}


def _post_idoms(g: Cfg) -> list[int]:
    idom = _idoms(*reverse_postorder(g.exit, g.preds), g.succs)
    if -1 in idom:
        raise CheckDiagnostic(f"exit unreachable from some node in {g.method_id!r}")
    return idom


def post_dominators(g: Cfg) -> dict[int, int]:
    """Immediate post-dominators from exit over the reversed graph."""
    return dict(enumerate(_post_idoms(g)))
