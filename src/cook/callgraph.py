"""Class-hierarchy call graph and recursion detection.

Call targets are resolved from the receiver's declared type: a reference of
class C may hold C or any subclass, an interface reference may hold any class
implementing it (or a subinterface) and their subclasses. Virtual lookup walks
from each candidate class to the nearest declaration, so inherited methods
resolve too. Recursive methods are the members of nontrivial strongly
connected components (plus self loops), computed with Tarjan's algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import ast
from .lang.check import Symbols


@dataclass(slots=True)
class CallGraph:
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    succs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    preds: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def callers_of(self, method_id: str) -> tuple[str, ...]:
        return self.preds.get(method_id, ())


def build_call_graph(program: ast.Program, symbols: Symbols) -> CallGraph:
    """Edges (caller, callee) over internal methods; extern callees are sinks
    handled by the divergence rewrite and contribute no edges."""
    nodes = tuple(m.id for m in program.methods if not m.extern)
    edges: set[tuple[str, str]] = set()
    succs: dict[str, list[str]] = {mid: [] for mid in nodes}
    preds: dict[str, list[str]] = {mid: [] for mid in nodes}
    for m in program.methods:
        if m.extern:
            continue
        for s in ast.walk(m.body):
            if not isinstance(s, ast.Call):
                continue
            for target in symbols.resolve_call(m, s):
                if target.extern:
                    continue
                e = (m.id, target.id)
                if e not in edges:
                    edges.add(e)
                    succs[m.id].append(target.id)
                    preds[target.id].append(m.id)
    return CallGraph(
        nodes,
        frozenset(edges),
        {k: tuple(v) for k, v in succs.items()},
        {k: tuple(v) for k, v in preds.items()},
    )


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
    """Methods in reverse topological order of the SCC condensation, so most
    callees are processed before their callers."""
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
