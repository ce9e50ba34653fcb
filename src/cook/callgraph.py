"""Class-hierarchy call graph and recursion detection.

Call targets are resolved from the receiver's declared type: a reference of
class C may hold C or any subclass, an interface reference may hold any class
implementing it (or a subinterface) and their subclasses. Each candidate class
takes its nearest declaration, so inherited methods resolve too.
`Symbols.resolve_call` finds the targets once per receiver type and callee
name, from the hierarchy `check` records. The graph's rows are those the
alias analysis resolved (`AliasAnalysis.calls`). Recursive methods are the
members of nontrivial strongly connected components (plus self loops),
computed with Tarjan's algorithm.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .lang import ast


@dataclass(slots=True)
class CallGraph:
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    succs: dict[str, tuple[str, ...]] = field(default_factory=dict)


def build_call_graph(program: ast.Program, rows: Mapping[str, tuple[str, ...]]) -> CallGraph:
    """Edges (caller, callee) over internal methods. `rows` holds each
    method's internal callees, as `AliasAnalysis.calls` resolved them."""
    nodes = tuple(m.id for m in program.methods if not m.extern)
    succs = {mid: rows[mid] for mid in nodes}
    edges = frozenset((mid, callee) for mid in nodes for callee in succs[mid])
    return CallGraph(nodes, edges, succs)


def strongly_connected_components(
    nodes: tuple[str, ...], succs: dict[str, tuple[str, ...]]
) -> list[list[str]]:
    """Tarjan's algorithm, iterative so deep graphs cannot overflow the stack."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, i = work[-1]
            if i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            row = succs.get(node, ())
            advanced = False
            while i < len(row):
                nxt = row[i]
                i += 1
                if nxt not in index:
                    work[-1] = (node, i)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def recursion_set(graph: CallGraph) -> frozenset[str]:
    """Methods on call-graph cycles. The loop-shaped termination oracle says
    nothing about recursion, so every cycle member is treated as divergent."""
    out: set[str] = set()
    for scc in strongly_connected_components(graph.nodes, graph.succs):
        if len(scc) > 1:
            out.update(scc)
    for mid in graph.nodes:
        if (mid, mid) in graph.edges:
            out.add(mid)
    return frozenset(out)


def condensation_order(graph: CallGraph) -> list[str]:
    """Methods in reverse topological order of the SCC condensation: every
    callee comes before its callers, except within a cycle."""
    order: list[str] = []
    for scc in strongly_connected_components(graph.nodes, graph.succs):
        order.extend(sorted(scc))
    return order


def to_dot(graph: CallGraph) -> str:
    lines = ["digraph callgraph {"]
    for mid in graph.nodes:
        lines.append(f'  "{mid}";')
    for u, v in sorted(graph.edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines)
