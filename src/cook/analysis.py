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
a bottom source always has one, so a mask loses nothing of a fact set.

Each method's formals, locals and `ret` are numbered as one block of
consecutive ids, in that order, the first time any of them is needed
(`Analyzer.frame`, a name -> id table). `Analyzer.rep_id` answers a `Scalar`
from its method's table, numbering that frame first if it is not yet, so
every scalar has exactly one id and none is hashed or compared; its own id
table holds only field and array representatives. A frame block records its
method and names, and its `Scalar` objects are made only when a decode first
reads one of its ids (`Reps`). The node table looks names up
in the frame table, fields by static type and name (`Analyzer.field_id`).
Facts stay masks from the node table to the result: `method_facts` returns a
mask dict, a summary is a mask dict (`strip_locals` drops the frame's
dependents and clears its locals' source bits), and a call node reads its
callee's summary mask directly. The `AnalysisResult` keeps them as masks
too: its `facts` and `summaries` are `FactTable`s, which decode a method to
a `frozenset` of `(dependent, source, cause)` tuples the first time it is
read and keep that set. The verdicts and causes are read from the cause
bits, so the report decodes nothing; a reader of `result.facts` only ever
sees tuples. `encode` and `decode` are the boundary.

Every CFG node gets one entry in a node table (`node_spec`), built once per
method and read as it is by every pass: the pairs it generates, the
dependents it kills, the cause bits it adds, the callees whose summaries it
imports and the representatives it may write, all as ids. `node_spec` picks
the statement kind with one `type(s)` and each kind builds its tuples
directly; the four scalar assignments, about half of all nodes, come first.
`Analyzer.spec` builds a method's entries, its heap footprint (read only
from the kinds that can name the heap), its control pairs and its wake lists
in one pass over the CFG. A node's governing branches come from
`cfg.governing_branches` as one int bitset; the writes with the same bitset
share one tuple of control pairs, each branch with the variables of its
condition, and are added once to each of those branches' wake lists. A write
depends on everything it reads: its operands, the field or array
representative, and the base pointer and index it dereferences, matching the
reified semantics where a bottom base or index smears the access. Scalar
targets kill their old facts; field and array targets never kill, because
their representatives over-approximate aliases. A call statement's entry
names each internal callee with a substitution: the caller's actuals for the
callee's formals and the call target for its return slot. A callee's summary
is the only input that changes during the fixpoint, so the entry does not
hold it: `transfer` reads the current summary mask dict and composes it
through the substitution on every visit, and the method's entry seeds the
field and array ids the summary names.

One transfer (`transfer`) maps a node's entry, its IN facts and the current
summaries to OUT: it pops killed dependents, ORs the IN mask of each
generated pair's source into its dependent (so dependencies always bottom
out at entry values), ORs in the cause bits, imports each callee summary,
and ORs the control mask into everything the node may write. The
control mask carries control dependence: a statement governed by a branch
inherits, for every variable free in the branch condition, that variable's
sources at the branch.

The method fixpoint seeds the entry with identity facts over the method's
footprint and iterates to a fixpoint. Its worklist pops nodes by their rank
in `Cfg.order`, the order in which `cfg.build_cfg` numbered them with exit
last, where every edge but a loop's back edge runs forward, so without
loops every node is visited once, after all of its predecessors. A node is
queued again when the OUT of a predecessor changes, or when the OUT of a
branch that governs it changes: a branch passes its IN through, and the
node's control mask reads that IN. Every transfer is monotone and every node
whose inputs change is visited again, so the result is the least fixpoint of
the node equations in any order; the order only sets the number of visits.
The program fixpoint maintains per-method summaries (facts minus frame-local
names) over the call graph worklist until nothing changes. A method lands in
the swamp when its facts contain a bottom-sourced pair; the `post` placement
tests the stripped summary instead, so divergence confined to dead locals
keeps the caller out of the swamp.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from heapq import heappop, heappush

from .aliases import RET
from .cfg import Cfg, set_bits
from .lang import ast
from .pipeline import ProgramModel
from .representatives import BOTTOM, Bottom, Representative, Scalar

Fact = tuple  # (dependent, source, cause | None)
Facts = dict  # dependent id -> mask of sources, never 0

CAUSES = (ast.DivergenceCause.API, ast.DivergenceCause.LOOP, ast.DivergenceCause.RECURSION)
CAUSE_BIT = {cause: 1 << k for k, cause in enumerate(CAUSES)}
CAUSE_BITS = (1 << len(CAUSES)) - 1
SHIFT = len(CAUSES)  # representative `i` is source bit `i + SHIFT`


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
    # (callee method id, {callee formal or ret id: caller id}): the callee's
    # current summary is composed through the substitution by `transfer`
    calls: tuple = ()
    writes: tuple = ()  # take the control mask


_PASS = NodeSpec()  # entry, exit and branches: OUT is IN
# the statements whose entry may name a field or array representative
_HEAP_KINDS = frozenset(
    {ast.FieldRead, ast.FieldWrite, ast.ArrayRead, ast.ArrayWrite, ast.Call, ast.BottomAssign}
)
_NO_FACTS: Facts = {}
_NO_SUMMARIES: dict[str, Facts] = {}


def node_spec(s: ast.Stmt | None, method_id: str, an: "Analyzer", fr: dict[str, int]) -> NodeSpec:
    """The node-table entry of a statement in method `method_id`, whose frame
    table (`Analyzer.frame`) is `fr`: scalars are looked up there by name,
    fields through `an.field_id`, array partitions and bottom targets through
    `an.rep_id`; entry, exit and branch nodes (`None`, `IfElse`, `While`)
    pass IN through.

    A node's writes are `aliases.written_reps` of its statement: a bottom
    assignment's targets, the one dependent of any other statement, and for
    a call the whole write set of every internal target. The kinds are the
    concrete `ast.Stmt` classes, which have no subclasses, so one `type(s)`
    picks the branch, and each branch builds its tuples directly. The four
    scalar assignments, about half of all nodes, come first; like a call or
    a read from the heap, each is a strong update of one scalar, whose kills
    and writes are the same `(dep,)`."""
    kind = type(s)
    if kind is ast.ConstAssign:
        one = (fr[s.target],)
        return NodeSpec((), one, (), (), one)
    if kind is ast.BinaryAssign:
        dep, left, right = fr[s.target], fr[s.left], fr[s.right]
        gen = ((dep, left),) if left == right else ((dep, left), (dep, right))
        one = (dep,)
        return NodeSpec(gen, one, (), (), one)
    if kind is ast.CopyAssign or kind is ast.UnaryAssign:
        dep = fr[s.target]
        one = (dep,)
        src = fr[s.source] if kind is ast.CopyAssign else fr[s.operand]
        return NodeSpec(((dep, src),), one, (), (), one)
    if s is None or kind is ast.IfElse or kind is ast.While:
        return _PASS
    if kind is ast.Return:  # `ret` takes the value; nothing is killed
        dep = fr[RET]
        return NodeSpec(((dep, fr[s.value]),), (), (), (), (dep,))
    if kind is ast.Call:
        dep = fr[s.target]
        sym = an.sym
        reads: list[int] = []
        calls: list = []
        writes: frozenset[int] = frozenset()
        for target in sym.resolve_call(sym.methods[method_id], s):
            if target.extern:  # safe-listed API: pure function of its arguments
                reads += map(fr.__getitem__, s.actuals)
                continue
            callee = an.frame(target.id)  # which lists the formals first, in order
            subst = dict(zip(callee.values(), map(fr.__getitem__, s.actuals)))
            subst[callee[RET]] = dep
            calls.append((target.id, subst))
            writes |= an.call_writes(target.id)
        gen = tuple((dep, src) for src in dict.fromkeys(reads))
        writes = tuple(writes) if dep in writes else (dep, *writes)
        return NodeSpec(gen, (dep,), (), tuple(calls), writes)
    rep_id = an.rep_id
    if kind is ast.BottomAssign:
        bottoms = tuple((rep_id(t), CAUSE_BIT[s.cause]) for t in s.targets)
        return NodeSpec(
            kills=tuple(rep_id(t) for t in s.targets if isinstance(t, Scalar)),
            bottoms=bottoms,
            writes=tuple(dep for dep, _ in bottoms),
        )
    # the heap: a read is a strong update of its scalar target, from the
    # representative and every name it dereferences; a write kills nothing,
    # since the representative over-approximates its aliases
    if kind is ast.FieldRead:
        dep = fr[s.target]
        one = (dep,)
        field = an.field_id(method_id, s.obj, s.field_name)
        return NodeSpec(((dep, field), (dep, fr[s.obj])), one, (), (), one)
    if kind is ast.ArrayRead:
        dep = fr[s.target]
        one = (dep,)
        part = rep_id(an.aliases.array_rep(method_id, s.array))
        return NodeSpec(((dep, part), (dep, fr[s.array]), (dep, fr[s.index])), one, (), (), one)
    if kind is ast.FieldWrite:
        dep = an.field_id(method_id, s.obj, s.field_name)
        sources = (fr[s.source], fr[s.obj])
    elif kind is ast.ArrayWrite:
        dep = rep_id(an.aliases.array_rep(method_id, s.array))
        sources = (fr[s.source], fr[s.array], fr[s.index])
    else:
        raise TypeError(f"no transfer for {kind.__name__}")
    return NodeSpec(tuple((dep, src) for src in dict.fromkeys(sources)), (), (), (), (dep,))


def transfer(
    node: NodeSpec, d: Facts, ctrl: int = 0, summaries: Mapping[str, Facts] = _NO_SUMMARIES
) -> Facts:
    """OUT of a node from its IN `d`, its control mask `ctrl` and the callee
    summary masks: killed dependents are popped, each generated pair ORs its
    source's IN mask into its dependent (so dependencies always bottom out at
    entry values), cause bits are ORed in as they are, and `ctrl` is ORed
    into every write. A call imports each callee's summary: every summary
    fact `(dep, mask)` ORs its cause bits, and the IN mask of each of its
    source bits mapped through the call's substitution (heap ids map to
    themselves), into the substituted `dep`. A node that changes nothing
    returns `d` itself."""
    kills, gen, bottoms, calls = node.kills, node.gen, node.bottoms, node.calls
    if not (kills or gen or bottoms or calls or (ctrl and node.writes)):
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
    for callee, subst in calls:
        for dep, mask in summaries.get(callee, _NO_FACTS).items():
            bits = mask & CAUSE_BITS
            sources = mask >> SHIFT
            while sources:  # lowest bit first: these masks are wide and sparse
                low = sources & -sources
                src = low.bit_length() - 1
                bits |= d.get(subst.get(src, src), 0)
                sources ^= low
            if bits:
                dep = subst.get(dep, dep)
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
    # per node, what to queue when its OUT changes: its successors and, for a
    # branch, the nodes whose control mask reads its IN (a branch's OUT is its IN)
    wake: list[list[int]]
    seeds: tuple[int, ...]
    call_nodes: tuple[int, ...]


class Analyzer:
    """Runs the dependence analysis over a rewritten program model."""

    def __init__(self, model: ProgramModel):
        self.model = model
        self.aliases = model.aliases
        self.sym = model.symbols
        self._specs: dict[str, _MethodSpec] = {}
        self._ids: dict[Representative, int] = {}  # all but the frames' ids
        self._reps = Reps()
        self._heap: set[int] = set()  # ids of field and array representatives
        self._frames: dict[str, dict[str, int]] = {}
        self._fields: dict[tuple[str, str], int] = {}
        self._strip: dict[str, tuple[frozenset[int], int]] = {}
        self._heaps: dict[str, tuple[Facts, tuple[int, ...]]] = {}
        self._call_writes: dict[str, frozenset[int]] = {}

    # -- the encoding ---------------------------------------------------------

    def rep_id(self, rep: Representative) -> int:
        """The dense id of a representative; bottom has none, its causes are
        bits. A scalar's id is its slot in its method's frame (`frame`), so
        no `Scalar` is hashed; `_ids` holds the field and array ones."""
        if type(rep) is Scalar:
            return self.frame(rep.method)[rep.name]
        i = self._ids.get(rep)
        if i is None:
            assert not isinstance(rep, Bottom)
            i = self._ids[rep] = self._reps.add(rep)
            self._heap.add(i)
        return i

    def frame(self, method_id: str) -> dict[str, int]:
        """The ids of the method's formals, locals and `ret` by name: one
        block of consecutive ids in that order, numbered the first time any
        of them is asked for."""
        fr = self._frames.get(method_id)
        if fr is None:
            m = self.sym.methods[method_id]
            names = [p.name for p in m.formals] + [p.name for p in m.locals] + [RET]
            first = self._reps.add_frame(method_id, names)
            fr = self._frames[method_id] = dict(zip(names, range(first, first + len(names))))
        return fr

    def field_id(self, method_id: str, obj: str, field_name: str) -> int:
        """The id of `AliasAnalysis.field_rep`, kept by the static type of
        `obj` and the field name."""
        key = (self.sym.var_types[method_id][obj], field_name)
        i = self._fields.get(key)
        if i is None:
            i = self._fields[key] = self.rep_id(self.aliases.field_rep_for(*key))
        return i

    def call_writes(self, method_id: str) -> frozenset[int]:
        """The ids of `AliasAnalysis.call_writes`, interned once per method."""
        ids = self._call_writes.get(method_id)
        if ids is None:
            ids = self._call_writes[method_id] = frozenset(
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
        return decode(self._reps, d)

    # -- preparation ------------------------------------------------------

    def spec(self, method_id: str) -> _MethodSpec:
        """The method's node table with its control pairs, wake lists and
        footprint, built in one pass over its CFG and kept."""
        cached = self._specs.get(method_id)
        if cached is not None:
            return cached
        g = self.model.methods[method_id].cfg
        graph = g.nodes
        fr = self.frame(method_id)
        governing = self.model.governing(method_id)
        nodes: list[NodeSpec] = []
        control: list[tuple[tuple[int, int], ...]] = []
        # governing branch bitset -> (its control pairs, the writes it governs)
        groups: dict[int, tuple[tuple[tuple[int, int], ...], list[int]]] = {}
        touched: set[int] = set()  # writes and sources of the nodes that may name the heap
        call_nodes: list[int] = []
        for n, node in enumerate(graph):
            s = node.stmt
            ns = node_spec(s, method_id, self, fr)
            nodes.append(ns)
            writes = ns.writes
            if type(s) in _HEAP_KINDS:
                if ns.calls:
                    call_nodes.append(n)
                touched.update(writes)
                touched.update(src for _, src in ns.gen)
            branches = governing[n]
            if not (writes and branches):
                control.append(())
                continue
            group = groups.get(branches)
            if group is None:  # each branch with the variables of its condition
                pairs = tuple(
                    (b, fr[v])
                    for b in set_bits(branches)
                    for v in (graph[b].cond.left, graph[b].cond.right)
                )
                group = groups[branches] = (pairs, [])
            control.append(group[0])
            group[1].append(n)
        # a node wakes its successors and, for a branch, the writes it governs
        wake = g.succs.copy()  # the CFG's own lists: a branch's is replaced, never extended
        for branches, (_, governed) in groups.items():
            for b in set_bits(branches):
                wake[b] = wake[b] + governed
        # the footprint: the method's formals and locals and the heap it touches
        ret = fr[RET]
        seeds = (*range(ret - len(fr) + 1, ret), *(touched & self._heap))
        spec = _MethodSpec(g, nodes, control, wake, seeds, tuple(call_nodes))
        self._specs[method_id] = spec
        return spec

    def _summary_heap(self, callee: str, summaries: Mapping[str, Facts]) -> tuple[int, ...]:
        """The field and array ids that the callee's current summary names,
        which a caller seeds at entry; found again only when it changed."""
        facts = summaries.get(callee, _NO_FACTS)
        cached = self._heaps.get(callee)
        if cached is not None and cached[0] is facts:
            return cached[1]
        sources = 0
        for mask in facts.values():
            sources |= mask
        heap = tuple((set(facts) | set(set_bits(sources >> SHIFT))) & self._heap)
        self._heaps[callee] = (facts, heap)
        return heap

    # -- landfall ---------------------------------------------------------------

    def method_facts(self, method_id: str, summaries: dict[str, Facts]) -> Facts:
        """Worklist fixpoint over the method's CFG, given the callees' summary
        masks; returns the exit facts. Nodes are popped by their rank in
        `Cfg.order`."""
        spec = self.spec(method_id)
        g = spec.cfg
        n_nodes = len(g.nodes)
        nodes = spec.nodes
        seeds = set(spec.seeds)
        for nid in spec.call_nodes:
            for callee, _ in nodes[nid].calls:
                seeds.update(self._summary_heap(callee, summaries))
        entry_facts: Facts = {i: 1 << (i + SHIFT) for i in seeds}
        control, wake = spec.control, spec.wake
        order, rank = g.order, g.rank
        preds_of = g.preds
        empty: Facts = {}
        IN: list[Facts] = [empty] * n_nodes
        OUT: list[Facts] = [empty] * n_nodes
        work = [rank[g.entry]]
        queued = [False] * n_nodes
        queued[g.entry] = True
        visited = [False] * n_nodes
        while work:
            n = order[heappop(work)]
            queued[n] = False
            first = not visited[n]
            visited[n] = True
            preds = preds_of[n]
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
            out = transfer(nodes[n], incoming, ctrl, summaries)
            if out != OUT[n] or first:
                OUT[n] = out
                for s in wake[n]:
                    if not queued[s]:
                        queued[s] = True
                        heappush(work, rank[s])
        return OUT[g.exit]

    # -- summaries -----------------------------------------------------------

    def strip_locals(self, method_id: str, facts: Facts) -> Facts:
        """Callers cannot observe frame-local names: drop the dependents that
        are a local or formal (`ret` stays, it is the caller-visible channel)
        and clear the source bits of locals (formal sources survive so call
        sites can substitute actuals). Both masks are built once per method."""
        parts = self._strip.get(method_id)
        if parts is None:
            fr = self.frame(method_id)
            local_bits = 0
            for p in self.sym.methods[method_id].locals:
                local_bits |= 1 << (fr[p.name] + SHIFT)
            parts = self._strip[method_id] = (frozenset(fr.values()) - {fr[RET]}, ~local_bits)
        frame, keep = parts
        out: Facts = {}
        for k, mask in facts.items():
            if k not in frame:
                mask &= keep
                if mask:
                    out[k] = mask
        return out


# ---------------------------------------------------------------------------
# the result
# ---------------------------------------------------------------------------


class Reps:
    """The representative of each id. A field or array representative is
    kept when it is numbered; a frame block keeps only its method and names,
    and the block's `Scalar`s are made the first time a decode reads one of
    its ids, so a pass that decodes nothing makes none."""

    __slots__ = ("_reps", "_firsts", "_frames")

    def __init__(self):
        self._reps: list[Representative | None] = []  # None: a frame slot not yet made
        self._firsts: list[int] = []  # the first id of each frame block, ascending
        self._frames: list[tuple[str, list[str]]] = []  # each block's method and names

    def add(self, rep: Representative) -> int:
        self._reps.append(rep)
        return len(self._reps) - 1

    def add_frame(self, method_id: str, names: list[str]) -> int:
        """Number a block of one id per name; returns the first."""
        first = len(self._reps)
        self._firsts.append(first)
        self._frames.append((method_id, names))
        self._reps += [None] * len(names)
        return first

    def __getitem__(self, i: int) -> Representative:
        rep = self._reps[i]
        if rep is None:
            k = bisect_right(self._firsts, i) - 1
            first, (method_id, names) = self._firsts[k], self._frames[k]
            self._reps[first : first + len(names)] = [Scalar(method_id, n) for n in names]
            rep = self._reps[i]
        return rep


def decode(reps: Reps, d: Facts) -> frozenset[Fact]:
    """The (dependent, source, cause) tuples of a fact set whose ids index
    `reps`."""
    out: list[Fact] = []
    sources: dict[int, list] = {}  # dependents share few distinct masks
    for k, mask in d.items():
        srcs = sources.get(mask)
        if srcs is None:
            srcs = sources[mask] = [
                (BOTTOM, CAUSES[b]) if b < SHIFT else (reps[b - SHIFT], None)
                for b in set_bits(mask)
            ]
        dep = reps[k]
        out += [(dep, src, cause) for src, cause in srcs]
    return frozenset(out)


class FactTable(Mapping):
    """Each method's fact set as `(dependent, source, cause)` tuples, kept as
    masks and decoded per method on first read. It holds only the masks and
    the id -> representative list, not the `Analyzer`. Length, iteration and
    membership read the method ids and decode nothing."""

    __slots__ = ("_masks", "_reps", "_decoded")

    def __init__(self, masks: dict[str, Facts], reps: Reps):
        self._masks = masks
        self._reps = reps
        self._decoded: dict[str, frozenset[Fact]] = {}

    def __getitem__(self, method_id: str) -> frozenset[Fact]:
        facts = self._decoded.get(method_id)
        if facts is None:
            facts = self._decoded[method_id] = decode(self._reps, self._masks[method_id])
        return facts

    def __contains__(self, method_id) -> bool:
        return method_id in self._masks

    def __iter__(self) -> Iterator[str]:
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)


@dataclass
class AnalysisResult:
    st: frozenset[str]
    swamp: frozenset[str]
    causes: dict[str, frozenset[ast.DivergenceCause]]
    facts: FactTable
    summaries: FactTable


def analyze_program(model: ProgramModel, swamp_test: str = "pre") -> AnalysisResult:
    """Interprocedural fixpoint: run the method analysis per worklist entry,
    maintain stripped summaries, and re-queue callers whose callee summaries
    changed. The result is the least fixpoint, independent of pop order.
    Facts and summaries stay masks, in the result too."""
    analyzer = Analyzer(model)
    methods = model.analysis_order()
    summaries: dict[str, Facts] = {mid: {} for mid in methods}
    facts: dict[str, Facts] = {mid: {} for mid in methods}

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
    causes: dict[str, frozenset[ast.DivergenceCause]] = {}
    for mid in methods:
        bits = 0
        for mask in facts[mid].values():
            bits |= mask & CAUSE_BITS
        causes[mid] = frozenset(c for k, c in enumerate(CAUSES) if bits >> k & 1)
        tested = facts[mid] if swamp_test == "pre" else summaries[mid]
        if any(mask & CAUSE_BITS for mask in tested.values()):
            swamp.add(mid)
    all_methods = frozenset(methods)
    return AnalysisResult(
        st=all_methods - swamp,
        swamp=frozenset(swamp),
        causes=causes,
        facts=FactTable(facts, analyzer._reps),
        summaries=FactTable(summaries, analyzer._reps),
    )
