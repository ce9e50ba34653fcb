"""Divergence-dependence dataflow over rewritten programs.

Facts are pairs (dependent, source) of l-value representatives, optionally
tagged with a divergence cause when the source is bottom: (x, y) means x's
current value may depend on y's value at method entry, and (x, bottom) means
x cannot be ruled out as divergence-affected.

Inside the fixpoints facts are bit vectors (the bit-vector case of IFDS,
Reps, Horwitz and Sagiv, POPL 1995). Every representative has a dense id,
once per program. A fact set maps a dependent's id to the mask of its
sources: the three low bits are the bottom causes (API, LOOP, RECURSION) and
the representative with id `i` is bit `i + 3`. A mask of 0 is never stored.
A source that is not bottom never has a cause and a bottom source always has
one, so a mask loses nothing of a fact set.

Ids 0 to H - 1 are the heap's: the alias analysis numbers every field and
array partition once per program, the same in the first and the rewritten
model (`AliasAnalysis.heap_id`). Each method's formals, locals and `ret`
follow, as one block of consecutive ids in that order, numbered the first
time any of them is needed (`Analyzer.frame`, a name -> id table), so every
scalar has exactly one id and none is hashed or compared. A frame block
records its method and names, and its `Scalar` objects are made only when a
decode first reads one of its ids (`Reps`). The node table looks names up
in the frame table, and fields and array cells by the variable they are
accessed through (`AliasAnalysis.field_id` and `array_id`).
Facts stay masks from the node table to the result: `method_facts` returns a
mask dict, a summary is a mask dict (`strip_locals` drops the frame's
dependents and clears its locals' source bits), and a call node's entry is
built from its callee's summary mask directly. The `AnalysisResult` keeps
them as masks too: its `facts` and `summaries` are `FactTable`s, which
merge a method's callee-frame facts (below) into its masks and decode them
to a `frozenset` of `(dependent, source, cause)` tuples the first time it
is read, and keep that set. The verdicts and causes are read from the cause
bits, so the report decodes nothing and builds no callee-frame fact; a
reader of `result.facts` only ever sees tuples. `encode` and `decode` are
the boundary.

Every CFG node gets one entry in a node table (`node_spec`), built once per
method and read as it is by every pass: the pairs it generates, the
dependents it kills, the cause bits it adds and the representatives it may
write, all as ids. `node_spec` picks the statement kind with one `type(s)`
and each kind builds its tuples directly; the four scalar assignments, about
half of all nodes, come first. `Analyzer.spec` builds a method's entries,
its heap footprint (read only from the kinds that can name the heap) and its
control pairs in one pass over the CFG. A node's governing branches come
from `cfg.governing_branches` as one int bitset; the writes with the same
bitset share one tuple of control pairs, each branch with the variables of
its condition. A write depends on everything it reads: its operands, the
field or array representative, and the base pointer and index it
dereferences, matching the reified semantics where a bottom base or index
smears the access. Scalar targets kill their old facts; field and array
targets never kill, because their representatives over-approximate aliases.
A call's entry composes each internal callee's final summary through a
substitution, the caller's actuals for the callee's formals and the call
target for its return slot, with heap ids mapped to themselves: a summary
fact's cause bits become bottoms of its substituted dependent, and each of
its source bits one generated pair, so a summary edge is one more row of the
table (the functional approach of Sharir and Pnueli, 1981). The summaries
are an argument of the table builder, and every call node is then an
ordinary node. A summary's heap sources are generated sources, and each of
its heap dependents is in the callee's write set or is its own source, so
the footprint seeds them with the rest. A call node writes its target and
what a caller can observe of its internal callees' writes
(`Analyzer.visible_writes`): the ids of their `AliasAnalysis.heap_writes`,
the one closure of writes over callees.

Callee-frame facts stay out of the fixpoint. Such a fact has a formal,
local or `ret` of another method as its dependent: a call's control mask
reaches the frame slots its callees write, and a callee's own such facts
pass through its summary. No node of the caller reads or kills such a
dependent, since every source bit is the caller's own frame or the heap, so
the facts are write-only: after a method's fixpoint each call site records
what it adds, through its final IN and control mask, and `CalleeFrames`
composes them the first time a method's facts are read, with the same
result as composing them in the rows. Nothing else writes such a
dependent: a bottom assignment names only its own method's scalars
(`AliasAnalysis._bad_target`).

One transfer (`transfer`) maps a node's entry and its IN facts to OUT: it
pops killed dependents, ORs the IN mask of each generated pair's source into
its dependent (so dependencies always bottom out at entry values), ORs in
the cause bits, and ORs the control mask into everything the node may write.
The control mask carries control dependence: a statement governed by a
branch inherits, for every variable free in the branch condition, that
variable's sources at the branch.

The method fixpoint seeds the entry with identity facts over the method's
footprint and keeps one table, OUT, per node. `cfg.build_cfg` numbers the
nodes in a weak topological order (Bourdoncle, "Efficient chaotic iteration
strategies with widenings", 1993): with exit last, every edge runs forward
but a back edge into a `while` header, from the header's id range
(`Cfg.whiles`). So the fixpoint visits entry, the ids in order and exit,
and sweeps each `while`'s range, nested ranges the same way, until a sweep
changes no OUT: that paper's recursive strategy. A node joins its IN when
it is visited, and its control mask reads each governing branch's OUT,
which is the branch's IN; a branch numbered after a node it governs shares
a range with it. Every transfer is monotone and a sweep that changes
nothing leaves every node's equation holding, so the result is the least
fixpoint; without loops each node is visited once, after its predecessors.

The program pass runs the method fixpoint once per method, callees first,
and strips each method's facts into its summary (facts minus frame-local
names). The rewrite replaced every call that may reach a recursive method,
so the rewritten program has no call cycle: each summary is final before
any caller reads it, and the one pass is the interprocedural fixpoint. A
method lands in the swamp when its facts contain a bottom-sourced pair; the
`post` placement tests the stripped summary instead, so divergence confined
to dead locals keeps the caller out of the swamp. Both read the cause bits
of the callee-frame facts from one mask per method
(`CalleeFrames.aggregate`), which a summary keeps whole.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

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
    representative is an id. A call's callee summaries are composed into its
    `gen` and `bottoms`, so every node is one of these rows; a call's row
    leaves out the callee-frame facts and writes, which `CalleeFrames`
    builds after the fixpoint."""

    gen: tuple = ()  # (dep, src): dep takes src's IN mask
    kills: tuple = ()  # dependents whose IN facts die (strong updates)
    bottoms: tuple = ()  # (dep, cause bits) added directly
    writes: tuple = ()  # take the control mask


_PASS = NodeSpec()  # entry, exit and branches: OUT is IN
# the statements whose entry may name a field or array representative
_HEAP_KINDS = frozenset(
    {ast.FieldRead, ast.FieldWrite, ast.ArrayRead, ast.ArrayWrite, ast.Call, ast.BottomAssign}
)


def node_spec(
    s: ast.Stmt | None,
    method_id: str,
    an: "Analyzer",
    fr: dict[str, int],
    summaries: Mapping[str, Facts],
) -> NodeSpec:
    """The node-table entry of a statement in method `method_id`, whose frame
    table (`Analyzer.frame`) is `fr`: scalars are looked up there by name,
    fields and array cells by their heap ids (`AliasAnalysis.field_id` and
    `array_id`), bottom targets through `an.rep_id`; entry, exit and branch
    nodes (`None`, `IfElse`, `While`) pass IN through.

    A node's writes are a bottom assignment's targets, the one dependent of
    any other statement, and for a call also each internal target's visible
    writes (`Analyzer.visible_writes`); the frame slots that target's table
    writes are left to `CalleeFrames`. A call's target takes each extern
    target's actuals, and each internal target's summary in `summaries`,
    which must be final, composed through the call's substitution: every
    summary fact adds its cause bits to its substituted dependent and
    generates one pair per source bit. The program pass's summaries hold no
    callee-frame fact, so neither does the row. The kinds are the
    concrete `ast.Stmt` classes, which have no subclasses, so one `type(s)`
    picks the branch, and each branch builds its tuples directly. The four
    scalar assignments, about half of all nodes, come first; like a call or
    a read from the heap, each is a strong update of one scalar, whose kills
    and writes are the same `(dep,)`."""
    kind = type(s)
    if kind is ast.ConstAssign:
        one = (fr[s.target],)
        return NodeSpec((), one, (), one)
    if kind is ast.BinaryAssign:
        dep, left, right = fr[s.target], fr[s.left], fr[s.right]
        gen = ((dep, left),) if left == right else ((dep, left), (dep, right))
        one = (dep,)
        return NodeSpec(gen, one, (), one)
    if kind is ast.CopyAssign or kind is ast.UnaryAssign:
        dep = fr[s.target]
        one = (dep,)
        src = fr[s.source] if kind is ast.CopyAssign else fr[s.operand]
        return NodeSpec(((dep, src),), one, (), one)
    if s is None or kind is ast.IfElse or kind is ast.While:
        return _PASS
    if kind is ast.Return:  # `ret` takes the value; nothing is killed
        dep = fr[RET]
        return NodeSpec(((dep, fr[s.value]),), (), (), (dep,))
    if kind is ast.Call:
        dep = fr[s.target]
        sym = an.sym
        gen: list[tuple[int, int]] = []
        bottoms: list[tuple[int, int]] = []
        writes: frozenset[int] = frozenset()
        for target in sym.resolve_call(sym.methods[method_id], s):
            if target.extern:  # safe-listed API: pure function of its arguments
                gen += [(dep, fr[a]) for a in s.actuals]
                continue
            callee = an.frame(target.id)  # which lists the formals first, in order
            subst = dict(zip(callee.values(), map(fr.__getitem__, s.actuals)))
            subst[callee[RET]] = dep
            for k, mask in summaries[target.id].items():
                k = subst.get(k, k)
                if mask & CAUSE_BITS:
                    bottoms.append((k, mask & CAUSE_BITS))
                sources = mask >> SHIFT
                while sources:  # lowest bit first: these masks are wide and sparse
                    low = sources & -sources
                    src = low.bit_length() - 1
                    gen.append((k, subst.get(src, src)))
                    sources ^= low
            writes |= an.visible_writes(target.id)
        writes = tuple(writes) if dep in writes else (dep, *writes)
        return NodeSpec(tuple(gen), (dep,), tuple(bottoms), writes)
    if kind is ast.BottomAssign:
        rep_id = an.rep_id
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
        field = an.aliases.field_id(method_id, s.obj, s.field_name)
        return NodeSpec(((dep, field), (dep, fr[s.obj])), one, (), one)
    if kind is ast.ArrayRead:
        dep = fr[s.target]
        one = (dep,)
        part = an.aliases.array_id(method_id, s.array)
        return NodeSpec(((dep, part), (dep, fr[s.array]), (dep, fr[s.index])), one, (), one)
    if kind is ast.FieldWrite:
        dep = an.aliases.field_id(method_id, s.obj, s.field_name)
        sources = (fr[s.source], fr[s.obj])
    elif kind is ast.ArrayWrite:
        dep = an.aliases.array_id(method_id, s.array)
        sources = (fr[s.source], fr[s.array], fr[s.index])
    else:
        raise TypeError(f"no transfer for {kind.__name__}")
    return NodeSpec(tuple((dep, src) for src in dict.fromkeys(sources)), (), (), (dep,))


def transfer(node: NodeSpec, d: Facts, ctrl: int = 0) -> Facts:
    """OUT of a node from its IN `d` and its control mask `ctrl`: killed
    dependents are popped, each generated pair ORs its source's IN mask into
    its dependent (so dependencies always bottom out at entry values), cause
    bits are ORed in as they are, and `ctrl` is ORed into every write. A node
    that changes nothing returns `d` itself."""
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


def _join(OUT: list[Facts], preds: list[int]) -> Facts:
    """IN of a node: the union of its predecessors' OUT, the one
    predecessor's OUT itself."""
    if len(preds) == 1:
        return OUT[preds[0]]
    d = dict(OUT[preds[0]])
    for p in preds[1:]:
        for k, mask in OUT[p].items():
            d[k] = d.get(k, 0) | mask
    return d


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
    calls: tuple[int, ...] = ()  # the call nodes


def _keep(block: tuple[int, int, int]) -> int:
    """The mask that clears the source bits of a frame block's locals, the
    ids from its first local up to its `ret`, given the block's first slot,
    first local and `ret`."""
    _, locals_at, ret = block
    return ~(((1 << (ret - locals_at)) - 1) << (locals_at + SHIFT))


class Analyzer:
    """Runs the dependence analysis over a rewritten program model."""

    def __init__(self, model: ProgramModel):
        self.model = model
        self.aliases = model.aliases
        self.sym = model.symbols
        self._reps = Reps(self.aliases.heap)
        self._frames_at = len(self.aliases.heap)  # every id below is a heap id
        self._frames: dict[str, dict[str, int]] = {}
        self._visible: dict[str, frozenset[int]] = {}  # by method, on first use
        self.callee_frames = CalleeFrames(self.aliases.calls)

    # -- the encoding ---------------------------------------------------------

    def rep_id(self, rep: Representative) -> int:
        """The dense id of a representative; bottom has none, its causes are
        bits. A scalar's id is its slot in its method's frame (`frame`), so
        no `Scalar` is hashed; any other's is `AliasAnalysis.heap_id`."""
        if type(rep) is Scalar:
            return self.frame(rep.method)[rep.name]
        return self.aliases.heap_id(rep)

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

    def _block(self, method_id: str) -> tuple[int, int, int]:
        """The ids of the first slot, the first local and `ret` of the
        method's frame block."""
        fr = self.frame(method_id)
        ret = fr[RET]
        first = ret - len(fr) + 1
        return first, first + len(self.sym.methods[method_id].formals), ret

    def visible_writes(self, method_id: str) -> frozenset[int]:
        """What a call node writes for a call of the method, besides its
        target: the ids of `AliasAnalysis.heap_writes`. The frame slots of
        its callees that a call writes are `CalleeFrames.frame_writes`."""
        visible = self._visible.get(method_id)
        if visible is None:
            heap = map(self.aliases.heap_id, self.aliases.heap_writes(method_id))
            visible = self._visible[method_id] = frozenset(heap)
        return visible

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

    def spec(self, method_id: str, summaries: Mapping[str, Facts]) -> _MethodSpec:
        """The method's node table with its control pairs, footprint and call
        nodes, built in one pass over its CFG, each call composing its
        callees' summary masks from `summaries` and writing their visible
        writes, so the callees' summaries come first. Nothing keeps the
        table: the program pass builds each method's once, in `method_facts`,
        and drops it when the method is done. What a caller needs of it is
        recorded in `CalleeFrames`: the slots of its own frame that its nodes
        write, and its frame block, from which the frame writes are read."""
        g = self.model.methods[method_id].cfg
        graph = g.nodes
        fr = self.frame(method_id)
        governing = self.model.governing(method_id)
        nodes: list[NodeSpec] = []
        control: list[tuple[tuple[int, int], ...]] = []
        # governing branch bitset -> its control pairs
        groups: dict[int, tuple[tuple[int, int], ...]] = {}
        written: set[int] = set()
        touched: set[int] = set()  # writes and sources of the nodes that may name the heap
        calls: list[int] = []
        for n, s in enumerate(graph):
            ns = node_spec(s, method_id, self, fr, summaries)
            nodes.append(ns)
            writes = ns.writes
            written.update(writes)
            kind = type(s)
            if kind in _HEAP_KINDS:
                touched.update(writes)
                touched.update(src for _, src in ns.gen)
                if kind is ast.Call:
                    calls.append(n)
            branches = governing[n]
            if not (writes and branches):
                control.append(())
                continue
            pairs = groups.get(branches)
            if pairs is None:  # each branch with the variables of its condition
                pairs = groups[branches] = tuple(
                    (b, fr[v])
                    for b in set_bits(branches)
                    for v in (graph[b].cond.left, graph[b].cond.right)
                )
            control.append(pairs)
        block = first, _, ret = self._block(method_id)
        # every id a node writes is the heap's or its own frame's
        self.callee_frames.written[method_id] = {i for i in written if i >= self._frames_at}
        self.callee_frames.blocks[method_id] = block
        # the footprint: the method's formals and locals and the heap it touches
        seeds = (*range(first, ret), *(i for i in touched if i < self._frames_at))
        return _MethodSpec(g, nodes, control, seeds, tuple(calls))

    # -- landfall ---------------------------------------------------------------

    def method_facts(self, method_id: str, summaries: dict[str, Facts]) -> Facts:
        """The method's exit facts, given the callees' summary masks: entry,
        the ids in order, each `while`'s range again until a sweep of it
        changes nothing, and exit. Then each call site records its callees'
        callee-frame facts in `callee_frames`, through the site's final IN
        and control mask, so the callees' facts come first."""
        spec = self.spec(method_id, summaries)
        g = spec.cfg
        nodes, control, preds_of = spec.nodes, spec.control, g.preds
        OUT: list[Facts] = [{}] * len(nodes)  # never mutated, so one shared
        OUT[g.entry] = transfer(nodes[g.entry], {i: 1 << (i + SHIFT) for i in spec.seeds})
        end_of = {h: e for h, e, _ in g.whiles}
        # the open ranges, innermost last: (header, end, whether the enclosing
        # sweep or an earlier sweep of this range changed an OUT)
        ranges: list[tuple[int, int, bool]] = []
        n, changed = 2, False
        while n < len(nodes):
            if n in end_of and not (ranges and ranges[-1][0] == n):
                ranges.append((n, end_of[n], changed))
                changed = False
            incoming = _join(OUT, preds_of[n])
            ctrl = 0
            for b, v in control[n]:  # a branch passes its IN through
                ctrl |= OUT[b].get(v, 0)
            out = transfer(nodes[n], incoming, ctrl)
            if out is not OUT[n] and out != OUT[n]:
                OUT[n] = out
                changed = True
            n += 1
            while ranges and ranges[-1][1] == n:
                h, e, before = ranges[-1]
                if changed:  # sweep the range again
                    ranges[-1] = (h, e, True)
                    n, changed = h, False
                    break
                ranges.pop()
                changed = before
        frames = self.callee_frames
        frames.sites[method_id], frames.aggregate[method_id] = (
            self._call_sites(method_id, spec, OUT, preds_of) if spec.calls else ((), 0)
        )
        return transfer(nodes[g.exit], _join(OUT, preds_of[g.exit]))

    def _call_sites(
        self, method_id: str, spec: _MethodSpec, OUT: list[Facts], preds_of: list[list[int]]
    ) -> tuple[list[tuple[str, dict[int, int], int]], int]:
        """The method's call sites as `CalleeFrames` records them, and their
        aggregate mask, from the fixpoint's final OUT and the CFG's
        predecessor lists (which `method_facts` reads): per internal callee,
        the image of each source bit of its stripped callee-frame masks under
        the site's final IN (a formal is its actual, a heap id itself), and
        the site's control mask, which reaches the callee's frame slots: a
        method writes at least its own `ret`."""
        frames = self.callee_frames
        sym, fr = self.sym, self.frame(method_id)
        caller = sym.methods[method_id]
        graph = spec.cfg.nodes
        sites: list[tuple[str, dict[int, int], int]] = []
        aggregate = 0
        for n in spec.calls:
            s = graph[n]
            incoming = _join(OUT, preds_of[n])
            ctrl = 0
            for b, v in spec.control[n]:
                ctrl |= OUT[b].get(v, 0)
            for target in sym.resolve_call(caller, s):
                if target.extern:
                    continue
                callee = target.id
                bits = frames.aggregate[callee] & _keep(frames.blocks[callee])
                if not (bits or ctrl):
                    continue
                first, locals_at, _ = frames.blocks[callee]
                images: dict[int, int] = {}
                image = bits & CAUSE_BITS
                sources = bits >> SHIFT
                while sources:
                    low = sources & -sources
                    src = low.bit_length() - 1
                    sources ^= low
                    if first <= src < locals_at:  # a formal reads its actual
                        src_in = fr[s.actuals[src - first]]
                    else:
                        src_in = src
                    mask = incoming.get(src_in)
                    if mask:
                        images[src] = mask
                        image |= mask
                sites.append((callee, images, ctrl))
                aggregate |= image | ctrl
        return sites, aggregate

    # -- summaries -----------------------------------------------------------

    def strip_locals(self, method_id: str, facts: Facts) -> Facts:
        """Callers cannot observe frame-local names: drop the dependents that
        are a local or formal (`ret` stays, it is the caller-visible channel)
        and clear the source bits of locals (formal sources survive so call
        sites can substitute actuals); the program pass strips each method
        once (`_strip`)."""
        return _strip(facts, self._block(method_id))


def _strip(facts: Facts, block: tuple[int, int, int]) -> Facts:
    """A method's facts as its summary holds them, given its frame block's
    first slot, first local and `ret`: the block is formals, then locals,
    then `ret`, so the dropped dependents and the cleared source bits are
    ranges of it. The one strip rule of the fact and callee-frame masks."""
    first, _, ret = block
    keep = _keep(block)
    out: Facts = {}
    for k, mask in facts.items():
        if not first <= k < ret:
            mask &= keep
            if mask:
                out[k] = mask
    return out


# ---------------------------------------------------------------------------
# callee-frame facts
# ---------------------------------------------------------------------------


def _callees_first(method_id: str, done: Mapping[str, object], callees) -> list[str]:
    """`method_id` and the methods below it that `done` lacks, callees first:
    a depth-first postorder over `callees(mid)`, with no recursion, so a
    deep call chain cannot exhaust the stack. The call graph has no cycle."""
    order: list[str] = []
    seen: set[str] = set()
    stack = [(method_id, False)]
    while stack:
        mid, finished = stack.pop()
        if finished:
            order.append(mid)
        elif mid not in done and mid not in seen:
            seen.add(mid)
            stack.append((mid, True))
            stack += [(c, False) for c in callees(mid)]
    return order


class CalleeFrames:
    """A method's callee-frame facts, kept out of its fixpoint: the facts
    whose dependent is a formal, local or `ret` of another method. No node
    of the caller reads or kills such a dependent, since every source bit is
    the caller's own frame or the heap, and a bottom assignment names only
    its own method's scalars, so they can be built after the fact with the
    same result (the summary-edge view of IFDS, Reps, Horwitz and Sagiv,
    POPL 1995, applied to facts nobody reads).

    After a method's fixpoint, `Analyzer.method_facts` records per call site
    and internal callee the image of each source bit under the site's final
    IN and the site's control mask (`sites`), and their union over every
    site, which is the union of the method's callee-frame masks
    (`aggregate`): the verdicts and causes read its cause bits. A site adds
    to the caller each callee-frame fact of its callee, stripped of the
    callee's local sources, with its source bits mapped through those images,
    and its control mask to every frame slot that the callee writes
    (`frame_writes`). `facts` composes a method's facts the first time it is
    read, callees first, and keeps them. It holds no `Analyzer`."""

    __slots__ = ("aggregate", "sites", "written", "blocks", "_calls", "_facts", "_frame_writes")

    def __init__(self, calls: Mapping[str, tuple[str, ...]]):
        self.aggregate: dict[str, int] = {}
        self.sites: dict[str, list[tuple[str, dict[int, int], int]]] = {}
        # by method, recorded by `Analyzer.spec`: the slots of its own frame
        # that its node table writes, and the frame block's first slot, first
        # local and `ret`
        self.written: dict[str, set[int]] = {}
        self.blocks: dict[str, tuple[int, int, int]] = {}
        self._calls = calls  # by method: its internal callees
        self._facts: dict[str, Facts] = {}
        self._frame_writes: dict[str, frozenset[int]] = {}

    def frame_writes(self, method_id: str) -> frozenset[int]:
        """The frame slots that a call of the method may write: its own
        table's and, through its callees, theirs."""
        done = self._frame_writes
        for mid in _callees_first(method_id, done, self._calls.__getitem__):
            done[mid] = frozenset(self.written[mid]).union(*(done[c] for c in self._calls[mid]))
        return done[method_id]

    def facts(self, method_id: str) -> Facts:
        """The method's callee-frame facts, as masks by dependent id."""
        done = self._facts
        for mid in _callees_first(method_id, done, lambda m: [c for c, _, _ in self.sites[m]]):
            out: Facts = {}
            for callee, images, ctrl in self.sites[mid]:
                keep = _keep(self.blocks[callee])
                mapped: dict[int, int] = {}  # callee mask -> its image; few are distinct
                for k, mask in done[callee].items():
                    image = mapped.get(mask)
                    if image is None:
                        kept = mask & keep
                        image = kept & CAUSE_BITS
                        sources = kept >> SHIFT
                        while sources:
                            low = sources & -sources
                            image |= images.get(low.bit_length() - 1, 0)
                            sources ^= low
                        mapped[mask] = image
                    if image:
                        out[k] = out.get(k, 0) | image
                if ctrl:
                    for k in self.frame_writes(callee):
                        out[k] = out.get(k, 0) | ctrl
            done[mid] = out
        return done[method_id]

    def summary(self, method_id: str) -> Facts:
        """The method's callee-frame facts as its summary holds them
        (`_strip`): their dependents are in its callees' frames, never its
        own, as the call graph has no cycle, so only its locals' source bits
        are cleared."""
        return _strip(self.facts(method_id), self.blocks[method_id])


# ---------------------------------------------------------------------------
# the result
# ---------------------------------------------------------------------------


class Reps:
    """The representative of each id: the heap's, then the frame blocks. A
    frame block keeps only its method and names, and the block's `Scalar`s
    are made the first time a decode reads one of its ids, so a pass that
    decodes nothing makes none."""

    __slots__ = ("_reps", "_firsts", "_frames")

    def __init__(self, heap: list[Representative]):
        self._reps: list[Representative | None] = list(heap)  # None: a frame slot not yet made
        self._firsts: list[int] = []  # the first id of each frame block, ascending
        self._frames: list[tuple[str, list[str]]] = []  # each block's method and names

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
    masks and decoded per method on first read. The masks of the program
    pass leave the callee-frame facts out; `more(method_id)` gives them
    (`CalleeFrames`), and a read merges them in. It holds only the masks,
    `more` and the id -> representative list, not the `Analyzer`. Length,
    iteration and membership read the method ids and decode nothing."""

    __slots__ = ("_masks", "_reps", "_more", "_decoded")

    def __init__(self, masks: dict[str, Facts], reps: Reps, more: Callable[[str], Facts]):
        self._masks = masks
        self._reps = reps
        self._more = more
        self._decoded: dict[str, frozenset[Fact]] = {}

    def masks(self, method_id: str) -> Facts:
        """The method's fact set as masks by dependent id, its callee-frame
        facts merged in; their dependents are no others'."""
        d = self._masks[method_id]
        more = self._more(method_id)
        return {**d, **more} if more else d

    def __getitem__(self, method_id: str) -> frozenset[Fact]:
        facts = self._decoded.get(method_id)
        if facts is None:
            facts = self._decoded[method_id] = decode(self._reps, self.masks(method_id))
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
    """One pass over the methods, callees first (`analysis_order`): each
    method's facts are computed from its callees' final summaries, then
    stripped into its own. The model must be rewritten (`transformed_model`),
    so its call graph has no cycle and the pass is the interprocedural
    fixpoint. Facts and summaries stay masks, in the result too, and the
    callee-frame facts are built only when a method's facts are read; the
    verdicts and causes read their cause bits from `CalleeFrames.aggregate`."""
    if model.recursion:
        raise ValueError(f"the model has call cycles, rewrite it first: {sorted(model.recursion)}")
    analyzer = Analyzer(model)
    methods = model.analysis_order()
    facts: dict[str, Facts] = {}
    summaries: dict[str, Facts] = {}
    for mid in methods:
        facts[mid] = analyzer.method_facts(mid, summaries)
        summaries[mid] = analyzer.strip_locals(mid, facts[mid])

    frames = analyzer.callee_frames
    swamp: set[str] = set()
    causes: dict[str, frozenset[ast.DivergenceCause]] = {}
    for mid in methods:
        deferred = frames.aggregate[mid] & CAUSE_BITS  # a summary keeps every cause bit
        bits = deferred
        for mask in facts[mid].values():
            bits |= mask & CAUSE_BITS
        causes[mid] = frozenset(c for k, c in enumerate(CAUSES) if bits >> k & 1)
        tested = facts[mid] if swamp_test == "pre" else summaries[mid]
        if deferred or any(mask & CAUSE_BITS for mask in tested.values()):
            swamp.add(mid)
    all_methods = frozenset(methods)
    return AnalysisResult(
        st=all_methods - swamp,
        swamp=frozenset(swamp),
        causes=causes,
        facts=FactTable(facts, analyzer._reps, frames.facts),
        summaries=FactTable(summaries, analyzer._reps, frames.summary),
    )
