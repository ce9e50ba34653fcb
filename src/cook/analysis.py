"""Divergence-dependence dataflow over rewritten programs.

Facts are pairs (dependent, source) of l-value representatives, optionally
tagged with a divergence cause when the source is bottom: (x, y) means x's
current value may depend on y's value at method entry, and (x, bottom) means
x cannot be ruled out as divergence-affected.

Inside the fixpoints facts are bit vectors (the bit-vector case of IFDS,
Reps, Horwitz and Sagiv, POPL 1995). The `Analyzer` gives every
representative a dense id, once per program. A fact set maps a dependent's
id to the mask of its sources: the three low bits are the bottom causes
(API, LOOP, RECURSION) and the representative with id `i` is bit `i + 3`. A
mask of 0 is never stored. A source that is not bottom never has a cause and
a bottom source always has one, so a mask loses nothing of a fact set. The
facts are decoded back to `frozenset`s of `(dependent, source, cause)` tuples
where `method_facts` returns; summaries, `AnalysisResult` and the report only
ever see tuples.

Every CFG node gets one entry in a node table (`node_spec`), fixed before
the fixpoint runs: the pairs it generates, the dependents it kills, the
cause bits it adds, the callee summaries it imports and the representatives
it may write, all as ids. A write depends on everything it reads: its
operands, the field or array representative, and the base pointer and index
it dereferences, matching the reified semantics where a bottom base or index
smears the access. Scalar targets kill their old facts; field and array
targets never kill, because their representatives over-approximate aliases.
Call statements import the callee summary with actuals substituted for
formals and the call target for the return slot; that import is the only
rule that reads state changing during the fixpoint, so each method pass
binds it once (`Analyzer.with_imports`): a composed pair per summary fact
with a source, and the cause bits of each bottom-sourced one.

One transfer (`transfer`) maps a node's entry and its IN facts to OUT: it
pops killed dependents, ORs the IN mask of each generated pair's source into
its dependent (so dependencies always bottom out at entry values), ORs in the
cause bits, and ORs the control mask into everything the node may write. The
control mask carries control dependence: a statement governed by a branch
inherits, for every variable free in the branch condition, that variable's
sources at the branch.

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

from .aliases import RET, AliasAnalysis
from .cfg import BRANCH, Cfg
from .lang import ast
from .lang.check import Symbols
from .pipeline import ProgramModel
from .representatives import BOTTOM, Bottom, Representative, Scalar

Fact = tuple  # (dependent, source, cause | None)
Facts = dict  # dependent id -> mask of sources, never 0

CAUSES = (ast.DivergenceCause.API, ast.DivergenceCause.LOOP, ast.DivergenceCause.RECURSION)
CAUSE_BIT = {cause: 1 << k for k, cause in enumerate(CAUSES)}
CAUSE_BITS = (1 << len(CAUSES)) - 1
SHIFT = len(CAUSES)  # representative `i` is source bit `i + SHIFT`


def _set_bits(mask: int):
    """Positions of the set bits of `mask`, lowest first."""
    bits = bin(mask)[:1:-1]
    k = bits.find("1")
    while k >= 0:
        yield k
        k = bits.find("1", k + 1)


# ---------------------------------------------------------------------------
# the node table and the transfer
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class NodeSpec:
    """The transfer of one CFG node, fixed before the fixpoint runs; every
    representative is an id."""

    gen: tuple = ()  # (dep, src): dep takes src's IN mask
    kills: tuple = ()  # dependents whose IN facts die (strong updates)
    bottoms: tuple = ()  # (dep, cause bits) added directly
    calls: tuple = ()  # (callee method id, {callee formal or ret: caller representative})
    writes: tuple = ()  # take the control mask


_PASS = NodeSpec()  # entry, exit and branches: OUT is IN


def node_spec(
    s: ast.Stmt | None,
    method_id: str,
    aliases: AliasAnalysis,
    symbols: Symbols,
    rep_id,
    call_writes,
) -> NodeSpec:
    """The node-table entry of a statement in method `method_id`, with
    representatives interned by `rep_id` and the write set of a call of an
    internal method interned by `call_writes`; entry, exit and branch nodes
    (`None`, `IfElse`, `While`) pass IN through.

    A node's writes are `aliases.written_reps` of its statement: a bottom
    assignment's targets, the one dependent of any other statement, and for
    a call the whole write set of every internal target."""
    if s is None or isinstance(s, (ast.IfElse, ast.While)):
        return _PASS
    if isinstance(s, ast.BottomAssign):
        bottoms = tuple((rep_id(t), CAUSE_BIT[s.cause]) for t in s.targets)
        return NodeSpec(
            kills=tuple(rep_id(t) for t in s.targets if isinstance(t, Scalar)),
            bottoms=bottoms,
            writes=tuple(dep for dep, _ in bottoms),
        )

    def sc(name: str) -> int:
        return rep_id(Scalar(method_id, name))

    calls: list = []
    if isinstance(s, ast.Return):
        dep, reads = sc(RET), [sc(s.value)]
    elif isinstance(s, ast.FieldWrite):
        dep = rep_id(aliases.field_rep(method_id, s.obj, s.field_name))
        reads = [sc(s.source), sc(s.obj)]
    elif isinstance(s, ast.ArrayWrite):
        dep = rep_id(aliases.array_rep(method_id, s.array))
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
            reads = [rep_id(aliases.field_rep(method_id, s.obj, s.field_name)), sc(s.obj)]
        elif isinstance(s, ast.ArrayRead):
            reads = [rep_id(aliases.array_rep(method_id, s.array)), sc(s.array), sc(s.index)]
        elif isinstance(s, ast.Call):
            reads = []
            for target in symbols.resolve_call(symbols.methods[method_id], s):
                if target.extern:  # safe-listed API: pure function of its arguments
                    reads += [sc(a) for a in s.actuals]
                    continue
                subst = {
                    rep_id(Scalar(target.id, f.name)): sc(a)
                    for f, a in zip(target.formals, s.actuals)
                }
                subst[rep_id(Scalar(target.id, RET))] = dep
                calls.append((target.id, subst))
        else:
            raise TypeError(f"no transfer for {type(s).__name__}")
    writes = {dep}
    for callee, _ in calls:
        writes.update(call_writes(callee))
    weak = isinstance(s, (ast.Return, ast.FieldWrite, ast.ArrayWrite))
    return NodeSpec(
        gen=tuple((dep, src) for src in dict.fromkeys(reads)),
        kills=() if weak else (dep,),
        calls=tuple(calls),
        writes=tuple(writes),
    )


def transfer(node: NodeSpec, d: Facts, ctrl: int = 0) -> Facts:
    """OUT of a node from its IN `d` and its control mask `ctrl`: killed
    dependents are popped, each generated pair ORs its source's IN mask into
    its dependent (so dependencies always bottom out at entry values), cause
    bits are ORed in as they are, and `ctrl` is ORed into every write. A
    node that changes nothing returns `d` itself."""
    kills, gen, bottoms = node.kills, node.gen, node.bottoms
    if not (kills or gen or bottoms or (ctrl and node.writes)):
        return d
    out = dict(d)
    for dep in kills:
        out.pop(dep, None)
    for dep, src in gen:
        mask = d.get(src)
        if mask:
            out[dep] = out.get(dep, 0) | mask
    for dep, bits in bottoms:
        out[dep] = out.get(dep, 0) | bits
    if ctrl:
        for w in node.writes:
            out[w] = out.get(w, 0) | ctrl
    return out


# ---------------------------------------------------------------------------
# per-method fixpoint
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _MethodSpec:
    cfg: Cfg
    nodes: list[NodeSpec]
    # per node that writes: (governing branch, variable free in its condition)
    control: list[tuple[tuple[int, int], ...]]
    seeds: tuple[int, ...]
    call_nodes: tuple[int, ...]


@dataclass(slots=True)
class _Import:
    """A callee summary in ids, as every call site imports it."""

    facts: frozenset[Fact]  # the summary it encodes
    pairs: tuple[tuple[int, int], ...]  # (dep, src), composed through IN
    bottoms: tuple[tuple[int, int], ...]  # (dep, cause bits)
    heap: tuple[int, ...]  # non-scalar representatives, seeded at entry


_NO_FACTS: frozenset[Fact] = frozenset()


class Analyzer:
    """Runs the dependence analysis over a rewritten program model."""

    def __init__(self, model: ProgramModel):
        self.model = model
        self.aliases = model.aliases
        self.sym = model.symbols
        self._specs: dict[str, _MethodSpec] = {}
        self._ids: dict[Representative, int] = {}
        self._reps: list[Representative] = []
        self._imports: dict[str, _Import] = {}
        self._call_writes: dict[str, tuple[int, ...]] = {}

    # -- the encoding ---------------------------------------------------------

    def rep_id(self, rep: Representative) -> int:
        """The dense id of a representative; bottom has none, its causes are bits."""
        i = self._ids.get(rep)
        if i is None:
            assert not isinstance(rep, Bottom)
            i = self._ids[rep] = len(self._reps)
            self._reps.append(rep)
        return i

    def call_writes(self, method_id: str) -> tuple[int, ...]:
        """The ids of `AliasAnalysis.call_writes`, interned once per method."""
        ids = self._call_writes.get(method_id)
        if ids is None:
            ids = self._call_writes[method_id] = tuple(
                map(self.rep_id, self.aliases.call_writes(method_id))
            )
        return ids

    def encode(self, facts) -> Facts:
        """A set of (dependent, source, cause) tuples as masks by dependent id."""
        out: Facts = {}
        for dep, src, cause in facts:
            if isinstance(src, Bottom):
                assert cause is not None, (dep, src)
                bit = CAUSE_BIT[cause]
            else:
                assert cause is None, (dep, src, cause)
                bit = 1 << (self.rep_id(src) + SHIFT)
            k = self.rep_id(dep)
            out[k] = out.get(k, 0) | bit
        return out

    def decode(self, d: Facts) -> frozenset[Fact]:
        """The (dependent, source, cause) tuples of a fact set."""
        reps = self._reps
        out: list[Fact] = []
        sources: dict[int, list] = {}  # dependents share few distinct masks
        for k, mask in d.items():
            srcs = sources.get(mask)
            if srcs is None:
                srcs = sources[mask] = [
                    (BOTTOM, CAUSES[b]) if b < SHIFT else (reps[b - SHIFT], None)
                    for b in _set_bits(mask)
                ]
            dep = reps[k]
            out += [(dep, src, cause) for src, cause in srcs]
        return frozenset(out)

    # -- preparation ------------------------------------------------------

    def spec(self, method_id: str) -> _MethodSpec:
        cached = self._specs.get(method_id)
        if cached is not None:
            return cached
        mm = self.model.methods[method_id]
        g = mm.cfg
        rep_id = self.rep_id
        nodes: list[NodeSpec] = []
        branch_fv: dict[int, tuple[int, ...]] = {}
        seeds: set[int] = set()
        call_nodes: list[int] = []
        m = mm.method
        for p in list(m.formals) + list(m.locals):
            seeds.add(rep_id(Scalar(method_id, p.name)))
        for n in g.nodes:
            if n.kind == BRANCH:
                branch_fv[n.id] = (
                    rep_id(Scalar(method_id, n.cond.left)),
                    rep_id(Scalar(method_id, n.cond.right)),
                )
            ns = node_spec(n.stmt, method_id, self.aliases, self.sym, rep_id, self.call_writes)
            nodes.append(ns)
            if ns.calls:
                call_nodes.append(n.id)
            for dep, src in ns.gen:
                seeds.add(dep)
                seeds.add(src)
            for dep, _ in ns.bottoms:
                seeds.add(dep)
            seeds.update(ns.writes)
        reps = self._reps
        seeds = {
            i for i in seeds if not isinstance(reps[i], Scalar) or reps[i].method == method_id
        }
        seeds.discard(rep_id(Scalar(method_id, RET)))
        governing = self.model.governing(method_id)
        control = [
            tuple((b, v) for b in governing[n] for v in branch_fv.get(b, ()))
            if nodes[n].writes
            else ()
            for n in range(len(nodes))
        ]
        spec = _MethodSpec(g, nodes, control, tuple(seeds), tuple(call_nodes))
        self._specs[method_id] = spec
        return spec

    def _import(self, callee: str, summaries: dict[str, frozenset[Fact]]) -> _Import:
        """The callee's current summary in ids; re-encoded only when it changed."""
        facts = summaries.get(callee, _NO_FACTS)
        cached = self._imports.get(callee)
        if cached is not None and cached.facts is facts:
            return cached
        pairs: list[tuple[int, int]] = []
        bottoms: list[tuple[int, int]] = []
        used: set[int] = set()
        for dep, mask in self.encode(facts).items():
            used.add(dep)
            if mask & CAUSE_BITS:
                bottoms.append((dep, mask & CAUSE_BITS))
            for src in _set_bits(mask >> SHIFT):
                used.add(src)
                pairs.append((dep, src))
        heap = tuple(i for i in used if not isinstance(self._reps[i], Scalar))
        imp = self._imports[callee] = _Import(facts, tuple(pairs), tuple(bottoms), heap)
        return imp

    def with_imports(self, node: NodeSpec, summaries: dict[str, frozenset[Fact]]) -> NodeSpec:
        """A call node's entry with its callees' summaries bound: actuals
        substituted for formals and the call target for the return slot."""
        gen, bottoms = list(node.gen), list(node.bottoms)
        for callee, subst in node.calls:
            imp = self._import(callee, summaries)
            gen += [(subst.get(dep, dep), subst.get(src, src)) for dep, src in imp.pairs]
            bottoms += [(subst.get(dep, dep), bits) for dep, bits in imp.bottoms]
        return NodeSpec(tuple(gen), node.kills, tuple(bottoms), (), node.writes)

    # -- landfall ---------------------------------------------------------------

    def method_facts(
        self, method_id: str, summaries: dict[str, frozenset[Fact]]
    ) -> frozenset[Fact]:
        """Worklist fixpoint over the method's CFG; returns the exit facts."""
        spec = self.spec(method_id)
        g = spec.cfg
        n_nodes = len(g.nodes)
        nodes = spec.nodes
        seeds = set(spec.seeds)
        if spec.call_nodes:
            nodes = list(nodes)
            for nid in spec.call_nodes:
                nodes[nid] = self.with_imports(nodes[nid], summaries)
                for callee, _ in spec.nodes[nid].calls:
                    seeds.update(self._import(callee, summaries).heap)
        entry_facts: Facts = {i: 1 << (i + SHIFT) for i in seeds}
        control = spec.control
        empty: Facts = {}
        IN: list[Facts] = [empty] * n_nodes
        OUT: list[Facts] = [empty] * n_nodes
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
                incoming = dict(OUT[preds[0]])
                for p in preds[1:]:
                    for k, mask in OUT[p].items():
                        incoming[k] = incoming.get(k, 0) | mask
            IN[n] = incoming
            ctrl = 0
            for b, v in control[n]:
                ctrl |= IN[b].get(v, 0)
            out = transfer(nodes[n], incoming, ctrl)
            if out != OUT[n] or first:
                OUT[n] = out
                for s in g.succs[n]:
                    if not queued[s]:
                        queued[s] = True
                        work.append(s)
        return self.decode(OUT[g.exit])

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
