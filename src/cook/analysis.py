"""Divergence-dependence dataflow over rewritten programs.

Facts are pairs (dependent, source) of l-value representatives, optionally
tagged with a divergence cause when the source is bottom: (x, y) means x's
current value may depend on y's value at method entry, and (x, bottom) means
x cannot be ruled out as divergence-affected.

Every CFG node gets one entry in a node table (`node_spec`), fixed before
the fixpoint runs: the pairs it generates, the dependents it kills, the
bottom-sourced pairs it adds, the callee summaries it imports and the
representatives it may write. A write depends on everything it reads: its
operands, the field or array representative, and the base pointer and index
it dereferences, matching the reified semantics where a bottom base or index
smears the access. Scalar targets kill their old facts; field and array
targets never kill, because their representatives over-approximate aliases.
Call statements import the callee summary with actuals substituted for
formals and the call target for the return slot; that import is the only
rule that reads state changing during the fixpoint.

One transfer (`transfer`) maps a node's table entry, its IN facts and its
imported summary facts to OUT: it drops the facts of killed dependents,
composes each generated pair and imported fact through IN (so dependencies
always bottom out at entry values) and adds bottom-sourced pairs directly.
Control dependence joins it in the method fixpoint: a statement governed by
a branch inherits, for every variable free in the branch condition, that
variable's facts at the branch, attached to everything the statement may
write.

The method fixpoint seeds the entry with identity facts over the method's
footprint and iterates to a fixpoint; the program fixpoint maintains
per-method summaries (facts minus frame-local names) over the call graph
worklist until nothing changes. A method lands in the swamp when its facts
contain a bottom-sourced pair; the `post` placement tests the stripped
summary instead, so divergence confined to dead locals keeps the caller out
of the swamp.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

from .aliases import RET, AliasAnalysis
from .cfg import BRANCH, Cfg
from .lang import ast
from .lang.check import Symbols
from .pipeline import ProgramModel
from .representatives import BOTTOM, Bottom, Representative, Scalar

Fact = tuple  # (dependent, source, cause | None)


# ---------------------------------------------------------------------------
# the node table and the transfer
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _NodeSpec:
    """The transfer of one CFG node, fixed before the fixpoint runs."""

    gen: tuple = ()  # (dep, src): dep takes src's IN facts
    kills: frozenset = frozenset()  # dependents whose IN facts die (strong updates)
    bottoms: tuple = ()  # (dep, cause) added directly
    calls: tuple = ()  # (callee id, {callee formal or ret: caller representative})
    writes: frozenset = frozenset()  # for control-dependence facts


_PASS = _NodeSpec()  # entry, exit and branches: OUT is IN


def node_spec(
    s: ast.Stmt | None, method_id: str, aliases: AliasAnalysis, symbols: Symbols
) -> _NodeSpec:
    """The node-table entry of a statement in method `method_id`; entry,
    exit and branch nodes (`None`, `IfElse`, `While`) pass IN through."""
    if s is None or isinstance(s, (ast.IfElse, ast.While)):
        return _PASS
    writes = aliases.written_reps(method_id, s)
    if isinstance(s, ast.BottomAssign):
        return _NodeSpec(
            kills=frozenset(t for t in s.targets if isinstance(t, Scalar)),
            bottoms=tuple((t, s.cause) for t in s.targets),
            writes=writes,
        )
    sc = partial(Scalar, method_id)
    calls: list = []
    if isinstance(s, ast.Return):
        dep, reads = sc(RET), [sc(s.value)]
    elif isinstance(s, ast.FieldWrite):
        dep = aliases.field_rep(method_id, s.obj, s.field_name)
        reads = [sc(s.source), sc(s.obj)]
    elif isinstance(s, ast.ArrayWrite):
        dep = aliases.array_rep(method_id, s.array)
        reads = [sc(s.source), sc(s.array), sc(s.index)]
    else:
        dep = sc(s.target)
        if isinstance(s, ast.ConstAssign):
            reads = []
        elif isinstance(s, ast.CopyAssign):
            reads = [sc(s.source)]
        elif isinstance(s, ast.UnaryAssign):
            reads = [sc(s.operand)]
        elif isinstance(s, ast.BinaryAssign):
            reads = [sc(s.left), sc(s.right)]
        elif isinstance(s, ast.FieldRead):
            reads = [aliases.field_rep(method_id, s.obj, s.field_name), sc(s.obj)]
        elif isinstance(s, ast.ArrayRead):
            reads = [aliases.array_rep(method_id, s.array), sc(s.array), sc(s.index)]
        elif isinstance(s, ast.Call):
            reads = []
            for target in symbols.resolve_call(symbols.methods[method_id], s):
                if target.extern:  # safe-listed API: pure function of its arguments
                    reads += [sc(a) for a in s.actuals]
                    continue
                subst = {
                    Scalar(target.id, f.name): sc(a) for f, a in zip(target.formals, s.actuals)
                }
                subst[Scalar(target.id, RET)] = dep
                calls.append((target.id, subst))
        else:
            raise TypeError(f"no transfer for {type(s).__name__}")
    weak = isinstance(s, (ast.Return, ast.FieldWrite, ast.ArrayWrite))
    return _NodeSpec(
        gen=tuple((dep, src) for src in dict.fromkeys(reads)),
        kills=frozenset() if weak else frozenset({dep}),
        calls=tuple(calls),
        writes=writes,
    )


def import_summaries(node: _NodeSpec, summaries: dict[str, frozenset[Fact]]) -> list[Fact]:
    """The callee summaries of a call node, with actuals substituted for
    formals and the call target for the return slot."""
    out: list[Fact] = []
    for callee, subst in node.calls:
        for dep, src, cause in summaries.get(callee, ()):
            out.append((subst.get(dep, dep), subst.get(src, src), cause))
    return out


def transfer(node: _NodeSpec, d: frozenset[Fact], imported=()) -> frozenset[Fact]:
    """OUT of a node from its IN `d` and the facts `imported` from callee
    summaries: the facts of killed dependents are dropped, each generated
    pair and each imported fact is composed through `d` (so dependencies
    always bottom out at entry values), and bottom-sourced facts are added
    as they are."""
    kills, gen = node.kills, node.gen
    if not (kills or gen or node.bottoms or imported):
        return d
    out: set[Fact] = {f for f in d if f[0] not in kills} if kills else set(d)
    if gen or imported:
        index: dict[Representative, list] = {}
        for dep, src, cause in d:
            index.setdefault(dep, []).append((src, cause))
        for dep, src in gen:
            for y, c in index.get(src, ()):
                out.add((dep, y, c))
        for dep, src, cause in imported:
            if isinstance(src, Bottom):
                out.add((dep, BOTTOM, cause))
            else:
                for y, c in index.get(src, ()):
                    out.add((dep, y, c))
    for dep, cause in node.bottoms:
        out.add((dep, BOTTOM, cause))
    return frozenset(out)


# ---------------------------------------------------------------------------
# per-method fixpoint
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _MethodSpec:
    cfg: Cfg
    nodes: list[_NodeSpec]
    governing: list[frozenset[int]]
    branch_fv: dict[int, tuple[Representative, ...]]
    static_seeds: frozenset[Representative]
    call_nodes: tuple[int, ...]


class Analyzer:
    """Runs the dependence analysis over a rewritten program model."""

    def __init__(self, model: ProgramModel):
        self.model = model
        self.aliases = model.aliases
        self.sym = model.symbols
        self._specs: dict[str, _MethodSpec] = {}

    # -- preparation ------------------------------------------------------

    def spec(self, method_id: str) -> _MethodSpec:
        cached = self._specs.get(method_id)
        if cached is not None:
            return cached
        mm = self.model.methods[method_id]
        g = mm.cfg
        nodes: list[_NodeSpec] = []
        branch_fv: dict[int, tuple[Representative, ...]] = {}
        seeds: set[Representative] = set()
        call_nodes: list[int] = []
        m = mm.method
        for p in list(m.formals) + list(m.locals):
            seeds.add(Scalar(method_id, p.name))
        for n in g.nodes:
            if n.kind == BRANCH:
                branch_fv[n.id] = (
                    Scalar(method_id, n.cond.left),
                    Scalar(method_id, n.cond.right),
                )
            ns = node_spec(n.stmt, method_id, self.aliases, self.sym)
            nodes.append(ns)
            if ns.calls:
                call_nodes.append(n.id)
            for dep, src in ns.gen:
                seeds.add(dep)
                seeds.add(src)
            for dep, _ in ns.bottoms:
                seeds.add(dep)
            seeds.update(ns.writes)
        seeds = {r for r in seeds if not isinstance(r, Scalar) or r.method == method_id}
        seeds.discard(Scalar(method_id, RET))
        governing = self.model.governing(method_id)
        spec = _MethodSpec(g, nodes, governing, branch_fv, frozenset(seeds), tuple(call_nodes))
        self._specs[method_id] = spec
        return spec

    def _seed_facts(self, spec: _MethodSpec, summaries) -> frozenset[Fact]:
        seeds = set(spec.static_seeds)
        for nid in spec.call_nodes:
            for callee, _ in spec.nodes[nid].calls:
                for dep, src, _ in summaries.get(callee, ()):
                    for rep in (dep, src):
                        if not isinstance(rep, (Scalar, Bottom)):
                            seeds.add(rep)
        return frozenset((r, r, None) for r in seeds)

    # -- landfall ---------------------------------------------------------------

    def method_facts(
        self, method_id: str, summaries: dict[str, frozenset[Fact]]
    ) -> frozenset[Fact]:
        """Worklist fixpoint over the method's CFG; returns the exit facts."""
        spec = self.spec(method_id)
        g = spec.cfg
        n_nodes = len(g.nodes)
        IN: list[frozenset[Fact]] = [frozenset()] * n_nodes
        OUT: list[frozenset[Fact]] = [frozenset()] * n_nodes
        entry_facts = self._seed_facts(spec, summaries)
        work = deque([g.entry])
        queued = [False] * n_nodes
        queued[g.entry] = True
        visited = [False] * n_nodes
        while work:
            n = work.popleft()
            queued[n] = False
            first = not visited[n]
            visited[n] = True
            preds = g.preds[n]
            if n == g.entry:
                incoming = entry_facts
            elif len(preds) == 1:
                incoming = OUT[preds[0]]
            else:
                merged: set[Fact] = set()
                for p in preds:
                    merged |= OUT[p]
                incoming = frozenset(merged)
            IN[n] = incoming
            ns = spec.nodes[n]
            out = transfer(ns, incoming, import_summaries(ns, summaries) if ns.calls else ())
            if spec.governing[n]:
                extra = self._control_facts(spec, n, IN)
                if extra:
                    out = out | extra
            if out != OUT[n] or first:
                OUT[n] = out
                for s in g.succs[n]:
                    if not queued[s]:
                        queued[s] = True
                        work.append(s)
        return OUT[g.exit]

    def _control_facts(self, spec: _MethodSpec, n: int, IN) -> set[Fact]:
        writes = spec.nodes[n].writes
        if not writes:
            return set()
        out: set[Fact] = set()
        for b in spec.governing[n]:
            fv = spec.branch_fv.get(b, ())
            if not fv:
                continue
            for dep, src, cause in IN[b]:
                if dep in fv:
                    for w in writes:
                        out.add((w, src, cause))
        return out

    # -- summaries -----------------------------------------------------------

    def strip_locals(self, method_id: str, facts: frozenset[Fact]) -> frozenset[Fact]:
        """Callers cannot observe frame-local names: drop facts whose dependent
        is a local or formal (`ret` stays, it is the caller-visible channel)
        and facts sourced at a non-formal local (formal sources survive so
        call sites can substitute actuals)."""
        m = self.sym.methods[method_id]
        formals = {p.name for p in m.formals}
        frame = formals | {p.name for p in m.locals}
        out: set[Fact] = set()
        for dep, src, cause in facts:
            if isinstance(dep, Scalar) and dep.method == method_id and dep.name in frame:
                continue
            if (
                isinstance(src, Scalar)
                and src.method == method_id
                and src.name in frame
                and src.name not in formals
            ):
                continue
            out.add((dep, src, cause))
        return frozenset(out)


@dataclass
class AnalysisResult:
    st: frozenset[str]
    swamp: frozenset[str]
    causes: dict[str, frozenset[ast.DivergenceCause]]
    facts: dict[str, frozenset[Fact]]
    summaries: dict[str, frozenset[Fact]]


def analyze_program(model: ProgramModel, swamp_test: str = "pre") -> AnalysisResult:
    """Interprocedural fixpoint: run the method analysis per worklist entry,
    maintain stripped summaries, and re-queue callers whose callee summaries
    changed. The result is the least fixpoint, independent of pop order."""
    analyzer = Analyzer(model)
    methods = model.analysis_order()
    summaries: dict[str, frozenset[Fact]] = {mid: frozenset() for mid in methods}
    facts: dict[str, frozenset[Fact]] = {mid: frozenset() for mid in methods}

    pending = deque(methods)
    queued = set(methods)
    while pending:
        mid = pending.popleft()
        queued.discard(mid)
        out = analyzer.method_facts(mid, summaries)
        facts[mid] = out
        stripped = analyzer.strip_locals(mid, out)
        if stripped != summaries[mid]:
            summaries[mid] = stripped
            for caller in model.callgraph.callers_of(mid):
                if caller not in queued:
                    queued.add(caller)
                    pending.append(caller)

    # facts grow monotonically, so membership in the swamp is decided by the
    # fixpoint facts regardless of when a method was last popped
    swamp: set[str] = set()
    for mid in methods:
        tested = facts[mid] if swamp_test == "pre" else summaries[mid]
        if any(isinstance(f[1], Bottom) for f in tested):
            swamp.add(mid)

    causes = {
        mid: frozenset(f[2] for f in fs if isinstance(f[1], Bottom) and f[2] is not None)
        for mid, fs in facts.items()
    }
    all_methods = frozenset(methods)
    return AnalysisResult(
        st=all_methods - swamp,
        swamp=frozenset(swamp),
        causes=causes,
        facts=facts,
        summaries=summaries,
    )
