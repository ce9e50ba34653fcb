"""Divergence-dependence dataflow over rewritten programs.

Facts are pairs (dependent, source) of l-value representatives, optionally
tagged with a divergence cause when the source is bottom: (x, y) means x's
current value may depend on y's value at method entry, and (x, bottom) means
x cannot be ruled out as divergence-affected.

The per-statement transfer composes each generated pair through the incoming
facts (so dependencies always bottom out at entry values), removes facts the
statement invalidates, and adds bottom-sourced pairs directly. Scalar targets
kill their old facts; field and array targets never kill, because their
representatives over-approximate aliases. Call statements import the callee
summary with actuals substituted for formals and the call target for the
return slot.

Two further fact sources join the transfer in the method fixpoint:

* control dependence: a statement governed by a branch inherits, for every
  variable free in the branch condition, that variable's facts at the branch,
  attached to everything the statement may write;
* dereference dependence: reading or writing through a base pointer or index
  makes the result depend on them, matching the reified semantics where a
  bottom base or index smears the access.

The method fixpoint seeds the entry with identity facts over the method's
footprint and iterates to a fixpoint; the program fixpoint maintains
per-method summaries (facts minus frame-local names) over the call graph
worklist until nothing changes. A method lands in the swamp when its facts
contain a bottom-sourced pair; the `post` placement tests the stripped
summary instead, so divergence confined to dead locals keeps the caller out
of the swamp.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .aliases import RET, AliasAnalysis
from .cfg import BRANCH, ENTRY, EXIT, Cfg
from .lang import ast
from .pipeline import ProgramModel
from .representatives import BOTTOM, Bottom, Representative, Scalar

Fact = tuple  # (dependent, source, cause | None)


def fact_pairs(facts) -> frozenset[tuple[Representative, Representative]]:
    """Project away cause tags, for comparisons against the core transfer rules."""
    return frozenset((d, s) for d, s, _ in facts)


# ---------------------------------------------------------------------------
# gen / kill
# ---------------------------------------------------------------------------


def gen_facts(
    s: ast.Stmt,
    method_id: str,
    aliases: AliasAnalysis,
    summaries: dict[str, frozenset[Fact]] | None = None,
    symbols=None,
) -> frozenset[Fact]:
    """Dependence pairs a statement induces locally (unsubstituted by context).

    Pure pairs carry a None cause; bottom assignments carry their cause.
    """
    sc = aliases.scalar
    if isinstance(s, ast.ConstAssign):
        return frozenset()
    if isinstance(s, ast.CopyAssign):
        return frozenset({(sc(method_id, s.target), sc(method_id, s.source), None)})
    if isinstance(s, ast.UnaryAssign):
        return frozenset({(sc(method_id, s.target), sc(method_id, s.operand), None)})
    if isinstance(s, ast.BinaryAssign):
        t = sc(method_id, s.target)
        return frozenset({(t, sc(method_id, s.left), None), (t, sc(method_id, s.right), None)})
    if isinstance(s, ast.FieldRead):
        rep = aliases.field_rep(method_id, s.obj, s.field_name)
        return frozenset({(sc(method_id, s.target), rep, None)})
    if isinstance(s, ast.FieldWrite):
        rep = aliases.field_rep(method_id, s.obj, s.field_name)
        return frozenset({(rep, sc(method_id, s.source), None)})
    if isinstance(s, ast.ArrayRead):
        rep = aliases.array_rep(method_id, s.array)
        return frozenset({(sc(method_id, s.target), rep, None)})
    if isinstance(s, ast.ArrayWrite):
        rep = aliases.array_rep(method_id, s.array)
        return frozenset({(rep, sc(method_id, s.source), None)})
    if isinstance(s, ast.Return):
        return frozenset({(sc(method_id, RET), sc(method_id, s.value), None)})
    if isinstance(s, ast.BottomAssign):
        return frozenset({(t, BOTTOM, s.cause) for t in s.targets})
    if isinstance(s, ast.Call):
        assert symbols is not None, "call sites need resolution context"
        out: set[Fact] = set()
        caller = symbols.methods[method_id]
        r = sc(method_id, s.target)
        for target in symbols.resolve_call(caller, s):
            if target.extern:
                # safe-listed API: pure function of its arguments
                for a in s.actuals:
                    out.add((r, sc(method_id, a), None))
                continue
            summary = (summaries or {}).get(target.id, frozenset())
            subst: dict[Representative, Representative] = {
                Scalar(target.id, f.name): sc(method_id, a)
                for f, a in zip(target.formals, s.actuals)
            }
            subst[Scalar(target.id, RET)] = r
            for dep, src, cause in summary:
                out.add((subst.get(dep, dep), subst.get(src, src), cause))
        return frozenset(out)
    return frozenset()  # branches, entry/exit


def kill_deps(s: ast.Stmt, method_id: str, aliases: AliasAnalysis) -> frozenset[Representative]:
    """Dependents whose facts the statement invalidates (strong updates only)."""
    if isinstance(
        s,
        (
            ast.ConstAssign,
            ast.CopyAssign,
            ast.UnaryAssign,
            ast.BinaryAssign,
            ast.FieldRead,
            ast.ArrayRead,
            ast.Call,
        ),
    ):
        return frozenset({aliases.scalar(method_id, s.target)})
    if isinstance(s, ast.BottomAssign):
        return frozenset(t for t in s.targets if isinstance(t, Scalar))
    # field/array writes and returns kill nothing (weak updates / merge)
    return frozenset()


def kill_facts(s: ast.Stmt, d, method_id: str, aliases: AliasAnalysis) -> frozenset[Fact]:
    deps = kill_deps(s, method_id, aliases)
    return frozenset(f for f in d if f[0] in deps)


def gen_kill(
    s: ast.Stmt,
    d,
    method_id: str,
    aliases: AliasAnalysis,
    summaries=None,
    symbols=None,
) -> tuple[frozenset[Fact], frozenset[Fact]]:
    return (
        gen_facts(s, method_id, aliases, summaries, symbols),
        kill_facts(s, d, method_id, aliases),
    )


def deref_pairs(
    s: ast.Stmt, method_id: str, aliases: AliasAnalysis
) -> frozenset[tuple[Representative, Representative]]:
    """Extra (written, base-or-index) pairs for dereferencing statements.

    These complete the transfer against the reified semantics, where a
    bottom-valued base or index taints the whole access; the core rules name
    only the representative, not the pointer it was reached through.
    """
    sc = aliases.scalar
    if isinstance(s, ast.FieldRead):
        t = sc(method_id, s.target)
        return frozenset({(t, sc(method_id, s.obj))})
    if isinstance(s, ast.ArrayRead):
        t = sc(method_id, s.target)
        return frozenset({(t, sc(method_id, s.array)), (t, sc(method_id, s.index))})
    if isinstance(s, ast.FieldWrite):
        rep = aliases.field_rep(method_id, s.obj, s.field_name)
        return frozenset({(rep, sc(method_id, s.obj))})
    if isinstance(s, ast.ArrayWrite):
        rep = aliases.array_rep(method_id, s.array)
        return frozenset({(rep, sc(method_id, s.array)), (rep, sc(method_id, s.index))})
    return frozenset()


def data_dep(
    d,
    s: ast.Stmt,
    method_id: str,
    aliases: AliasAnalysis,
    summaries=None,
    symbols=None,
) -> frozenset[Fact]:
    """Transfer of one statement over a fact set: generated pairs composed
    through `d`, bottom-sourced pairs kept directly, surviving facts carried."""
    gen = gen_facts(s, method_id, aliases, summaries, symbols)
    deps = kill_deps(s, method_id, aliases)
    out: set[Fact] = {f for f in d if f[0] not in deps}
    if gen:
        index: dict[Representative, list[tuple[Representative, object]]] = {}
        for dep, src, cause in d:
            index.setdefault(dep, []).append((src, cause))
        for dep, src, cause in gen:
            if isinstance(src, Bottom):
                out.add((dep, BOTTOM, cause))
            else:
                for y, c in index.get(src, ()):
                    out.add((dep, y, c))
    return frozenset(out)


# ---------------------------------------------------------------------------
# per-method fixpoint
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _NodeSpec:
    kind: str  # identity | simple | call | bottom
    gen: tuple = ()  # (dep, src) pairs composed through IN (simple nodes)
    deref: tuple = ()
    kills: frozenset = frozenset()
    bottoms: tuple = ()  # (dep, cause) added directly
    call: ast.Call | None = None
    writes: frozenset = frozenset()  # for control-dependence facts
    governing: frozenset = frozenset()


@dataclass(slots=True)
class _MethodSpec:
    cfg: Cfg
    nodes: list[_NodeSpec]
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
        governing = self.model.governing(method_id)
        nodes: list[_NodeSpec] = []
        branch_fv: dict[int, tuple[Representative, ...]] = {}
        seeds: set[Representative] = set()
        call_nodes: list[int] = []
        m = mm.method
        for p in list(m.formals) + list(m.locals):
            seeds.add(self.aliases.scalar(method_id, p.name))
        for n in g.nodes:
            gov = governing[n.id]
            if n.kind in (ENTRY, EXIT):
                nodes.append(_NodeSpec("identity", governing=gov))
                continue
            if n.kind == BRANCH:
                fv = (
                    self.aliases.scalar(method_id, n.cond.left),
                    self.aliases.scalar(method_id, n.cond.right),
                )
                branch_fv[n.id] = fv
                nodes.append(_NodeSpec("identity", governing=gov))
                continue
            s = n.stmt
            writes = self.aliases.written_reps(method_id, s)
            kills = kill_deps(s, method_id, self.aliases)
            if isinstance(s, ast.Call):
                call_nodes.append(n.id)
                nodes.append(
                    _NodeSpec("call", kills=kills, call=s, writes=writes, governing=gov)
                )
            elif isinstance(s, ast.BottomAssign):
                nodes.append(
                    _NodeSpec(
                        "bottom",
                        kills=kills,
                        bottoms=tuple((t, s.cause) for t in s.targets),
                        writes=writes,
                        governing=gov,
                    )
                )
            else:
                gen = tuple((d, src) for d, src, _ in gen_facts(s, method_id, self.aliases))
                deref = tuple(deref_pairs(s, method_id, self.aliases))
                nodes.append(
                    _NodeSpec(
                        "simple", gen=gen, deref=deref, kills=kills, writes=writes, governing=gov
                    )
                )
            last = nodes[-1]
            for dep, src in last.gen + last.deref:
                seeds.add(dep)
                seeds.add(src)
            for dep, _ in last.bottoms:
                seeds.add(dep)
            seeds.update(last.writes)
        seeds = {r for r in seeds if not isinstance(r, Scalar) or r.method == method_id}
        seeds.discard(self.aliases.scalar(method_id, RET))
        spec = _MethodSpec(g, nodes, branch_fv, frozenset(seeds), tuple(call_nodes))
        self._specs[method_id] = spec
        return spec

    def _seed_facts(self, method_id: str, spec: _MethodSpec, summaries) -> frozenset[Fact]:
        seeds = set(spec.static_seeds)
        m = self.sym.methods[method_id]
        for nid in spec.call_nodes:
            call = spec.nodes[nid].call
            for target in self.sym.resolve_call(m, call):
                if target.extern:
                    continue
                for dep, src, _ in summaries.get(target.id, ()):
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
        entry_facts = self._seed_facts(method_id, spec, summaries)
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
            out = self._transfer(method_id, spec, n, incoming, summaries)
            if spec.nodes[n].governing:
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

    def _transfer(
        self, method_id: str, spec: _MethodSpec, n: int, d: frozenset[Fact], summaries
    ) -> frozenset[Fact]:
        ns = spec.nodes[n]
        if ns.kind == "identity":
            return d
        out: set[Fact] = {f for f in d if f[0] not in ns.kills} if ns.kills else set(d)
        gen_pairs = ns.gen + ns.deref
        bottoms = ns.bottoms
        if ns.kind == "call":
            call_gen = gen_facts(ns.call, method_id, self.aliases, summaries, self.sym)
            extra_pairs = []
            extra_bottoms = []
            for dep, src, cause in call_gen:
                if isinstance(src, Bottom):
                    extra_bottoms.append((dep, cause))
                else:
                    extra_pairs.append((dep, src))
            gen_pairs = gen_pairs + tuple(extra_pairs)
            bottoms = bottoms + tuple(extra_bottoms)
        if gen_pairs:
            index: dict[Representative, list] = {}
            for dep, src, cause in d:
                index.setdefault(dep, []).append((src, cause))
            for dep, src in gen_pairs:
                for y, c in index.get(src, ()):
                    out.add((dep, y, c))
        for dep, cause in bottoms:
            out.add((dep, BOTTOM, cause))
        return frozenset(out)

    def _control_facts(self, spec: _MethodSpec, n: int, IN) -> set[Fact]:
        writes = spec.nodes[n].writes
        if not writes:
            return set()
        out: set[Fact] = set()
        for b in spec.nodes[n].governing:
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
    landfall_runs: int = field(default=0, compare=False)


def analyze_program(
    model: ProgramModel,
    swamp_test: str = "pre",
    order: str = "fifo",
    seed: int | None = None,
    jobs: int = 1,
) -> AnalysisResult:
    """Interprocedural fixpoint: run the method analysis per worklist entry,
    maintain stripped summaries, and re-queue callers whose callee summaries
    changed. The result is the least fixpoint, independent of pop order."""
    analyzer = Analyzer(model)
    methods = model.analysis_order()
    summaries: dict[str, frozenset[Fact]] = {mid: frozenset() for mid in methods}
    facts: dict[str, frozenset[Fact]] = {mid: frozenset() for mid in methods}
    runs = 0

    if jobs > 1 and len(methods) > 256:
        runs += _parallel_warm_start(analyzer, methods, summaries, facts, jobs)
        # warm facts are exact except around call-graph cycles, whose members
        # may have seen stale mates; re-queue those and let changes ripple
        start = [mid for mid in methods if mid in model.recursion]
    else:
        start = list(methods)

    pending = deque(start)
    queued = set(start)
    rng = random.Random(seed)

    def pop() -> str:
        if order == "fifo":
            mid = pending.popleft()
        elif order == "lifo":
            mid = pending.pop()
        elif order == "random":
            i = rng.randrange(len(pending))
            pending.rotate(-i)
            mid = pending.popleft()
            pending.rotate(i)
        else:
            raise ValueError(f"unknown worklist order {order!r}")
        queued.discard(mid)
        return mid

    while pending:
        mid = pop()
        out = analyzer.method_facts(mid, summaries)
        runs += 1
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
        landfall_runs=runs,
    )


# ---------------------------------------------------------------------------
# optional warm start across processes
# ---------------------------------------------------------------------------

_WORKER_ANALYZER: Analyzer | None = None
_WORKER_SUMMARIES: dict | None = None


def _worker_init(analyzer, summaries):  # pragma: no cover - exercised via fork
    global _WORKER_ANALYZER, _WORKER_SUMMARIES
    _WORKER_ANALYZER = analyzer
    _WORKER_SUMMARIES = summaries


def _worker_run(mid: str):  # pragma: no cover - exercised via fork
    return mid, _WORKER_ANALYZER.method_facts(mid, _WORKER_SUMMARIES)


def _parallel_warm_start(analyzer, methods, summaries, facts, jobs) -> int:
    """Analyze methods in parallel waves, callees strictly before callers.

    Outside call-graph cycles every method is analyzed against final callee
    summaries, so one pass suffices; the sequential worklist afterwards only
    revisits cycle members. Ascends from empty summaries, so the least
    fixpoint is preserved. Returns the number of analyses performed.
    """
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms fall back
        return 0
    graph = analyzer.model.callgraph
    depth: dict[str, int] = {}
    for mid in methods:  # methods arrive callees-first
        d = 0
        for callee in graph.succs.get(mid, ()):
            if callee in depth:
                d = max(d, depth[callee] + 1)
        depth[mid] = d
    waves: dict[int, list[str]] = {}
    for mid in methods:
        waves.setdefault(depth[mid], []).append(mid)
    runs = 0
    for d in sorted(waves):
        wave = waves[d]
        runs += len(wave)
        if len(wave) < 64:
            for mid in wave:
                facts[mid] = analyzer.method_facts(mid, summaries)
                summaries[mid] = analyzer.strip_locals(mid, facts[mid])
            continue
        with ctx.Pool(jobs, initializer=_worker_init, initargs=(analyzer, summaries)) as pool:
            for mid, out in pool.map(_worker_run, wave, chunksize=64):
                facts[mid] = out
                summaries[mid] = analyzer.strip_locals(mid, out)
    return runs
