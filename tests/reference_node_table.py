"""The dependence node-table builder as it was before `cook.analysis`
numbered each method's frame as one block of ids, kept as the reference for
`tests/test_analysis.py`.

`ReferenceTable` interns every representative through one dict, so each
`Scalar` operand is hashed and compared, and builds a method's table in two
passes: `node_spec` per CFG node, then the control pairs. A call node's
callee summaries are decoded `(dependent, source, cause)` sets, composed
through a substitution of representatives (`call_free_rows`), and its
writes add each internal callee's whole write set from the reference alias
walk's closure (`ReferenceAliases.call_writes`), so the tables need not be
built callees first. These are whole-closure rows: a call composes every
summary fact, callee-frame facts included, where `cook.analysis` builds
those after the fixpoint (`CalleeFrames`). Its ids are its own; a test
compares the two builders by decoding both tables to representatives, and
`ReferenceTable.method_facts` solves a method over its own rows, the
independent reference for the program pass.
"""

from __future__ import annotations

from cook.aliases import RET
from cook.analysis import CAUSE_BIT, SHIFT, NodeSpec, _MethodSpec, decode, transfer
from cook.cfg import BRANCHES, set_bits
from cook.lang import ast
from cook.pipeline import ProgramModel
from cook.representatives import Bottom, Representative, Scalar
from reference_aliases import reference_of

_PASS = NodeSpec()


def call_free_rows(summary, subst, rep_id):
    """The rows a decoded callee summary adds to its call node: each fact's
    dependent and source mapped through `subst`, a dict of representatives,
    a bottom-sourced fact as cause bits and any other as a generated pair."""
    gen, bottoms = [], []
    for dep, src, cause in summary:
        dep = rep_id(subst.get(dep, dep))
        if cause is None:
            gen.append((dep, rep_id(subst.get(src, src))))
        else:
            bottoms.append((dep, CAUSE_BIT[cause]))
    return gen, bottoms


def node_spec(s: ast.Stmt | None, method_id: str, table: "ReferenceTable", summaries) -> NodeSpec:
    kind = type(s)
    if s is None or kind is ast.IfElse or kind is ast.While:
        return _PASS
    rep_id = table.rep_id
    if kind is ast.BottomAssign:
        bottoms = tuple((rep_id(t), CAUSE_BIT[s.cause]) for t in s.targets)
        return NodeSpec(
            kills=tuple(rep_id(t) for t in s.targets if isinstance(t, Scalar)),
            bottoms=bottoms,
            writes=tuple(dep for dep, _ in bottoms),
        )

    fr = table.frame(method_id)
    aliases = table.aliases
    callees: list[str] = []
    bottoms: list = []
    composed: list = []
    weak = True  # a return or a heap write kills nothing
    if kind is ast.Return:
        dep, reads = fr[RET], [fr[s.value]]
    elif kind is ast.FieldWrite:
        dep = rep_id(aliases.field_rep(method_id, s.obj, s.field_name))
        reads = [fr[s.source], fr[s.obj]]
    elif kind is ast.ArrayWrite:
        dep = rep_id(aliases.array_rep(method_id, s.array))
        reads = [fr[s.source], fr[s.array], fr[s.index]]
    else:
        weak = False
        dep = fr[s.target]
        if kind is ast.ConstAssign:
            reads = []
        elif kind is ast.CopyAssign:
            reads = [fr[s.source]]
        elif kind is ast.UnaryAssign:
            reads = [fr[s.operand]]
        elif kind is ast.BinaryAssign:
            reads = [fr[s.left], fr[s.right]]
        elif kind is ast.FieldRead:
            reads = [rep_id(aliases.field_rep(method_id, s.obj, s.field_name)), fr[s.obj]]
        elif kind is ast.ArrayRead:
            reads = [rep_id(aliases.array_rep(method_id, s.array)), fr[s.array], fr[s.index]]
        elif kind is ast.Call:
            reads = []
            sym = table.sym
            for target in sym.resolve_call(sym.methods[method_id], s):
                if target.extern:  # safe-listed API: pure function of its arguments
                    reads += [fr[a] for a in s.actuals]
                    continue
                subst = {
                    Scalar(target.id, f.name): Scalar(method_id, a)
                    for f, a in zip(target.formals, s.actuals)
                }
                subst[Scalar(target.id, RET)] = Scalar(method_id, s.target)
                gen, bots = call_free_rows(summaries[target.id], subst, rep_id)
                composed += gen
                bottoms += bots
                callees.append(target.id)
        else:
            raise TypeError(f"no transfer for {kind.__name__}")
    writes = {dep}
    for callee in callees:
        writes.update(table.call_writes(callee))
    return NodeSpec(
        gen=tuple((dep, src) for src in dict.fromkeys(reads)) + tuple(composed),
        kills=() if weak else (dep,),
        bottoms=tuple(bottoms),
        writes=tuple(writes),
    )


def round_robin(spec: _MethodSpec, entry: dict[int, int]) -> dict[int, int]:
    """The exit masks of a method's node equations by round robin: sweep
    every node in id order, join IN over the predecessors' OUT, with `entry`
    at the entry node, OR in the control mask read from IN at each governing
    branch and apply `transfer`, until a sweep changes nothing."""
    g = spec.cfg
    IN: list[dict[int, int]] = [{} for _ in spec.nodes]
    OUT: list[dict[int, int]] = [{} for _ in spec.nodes]
    changed = True
    while changed:
        changed = False
        for n, node in enumerate(spec.nodes):
            incoming = dict(entry) if n == g.entry else {}
            for p in g.preds[n]:
                for k, mask in OUT[p].items():
                    incoming[k] = incoming.get(k, 0) | mask
            ctrl = 0
            for b, v in spec.control[n]:
                ctrl |= IN[b].get(v, 0)
            out = transfer(node, incoming, ctrl)
            changed |= incoming != IN[n] or out != OUT[n]
            IN[n], OUT[n] = incoming, out
    return OUT[g.exit]


class ReferenceTable:
    """Interns representatives and builds node tables the old way."""

    def __init__(self, model: ProgramModel):
        self.model = model
        self.aliases = reference_of(model)
        self.sym = model.symbols
        self._ids: dict[Representative, int] = {}
        self.reps: list[Representative] = []
        self._heap: set[int] = set()
        self._frames: dict[str, dict[str, int]] = {}
        self._call_writes: dict[str, tuple[int, ...]] = {}

    def rep_id(self, rep: Representative) -> int:
        i = self._ids.get(rep)
        if i is None:
            assert not isinstance(rep, Bottom)
            i = self._ids[rep] = len(self.reps)
            self.reps.append(rep)
            if not isinstance(rep, Scalar):
                self._heap.add(i)
        return i

    def frame(self, method_id: str) -> dict[str, int]:
        fr = self._frames.get(method_id)
        if fr is None:
            m = self.sym.methods[method_id]
            names = [p.name for p in m.formals] + [p.name for p in m.locals] + [RET]
            fr = self._frames[method_id] = {n: self.rep_id(Scalar(method_id, n)) for n in names}
        return fr

    def call_writes(self, method_id: str) -> tuple[int, ...]:
        ids = self._call_writes.get(method_id)
        if ids is None:
            ids = self._call_writes[method_id] = tuple(
                map(self.rep_id, self.aliases.call_writes(method_id))
            )
        return ids

    def spec(self, method_id: str, summaries) -> _MethodSpec:
        """The method's table, each call composing its callees' decoded
        summaries in `summaries`."""
        g = self.model.methods[method_id].cfg
        fr = self.frame(method_id)
        nodes: list[NodeSpec] = []
        branch_fv: dict[int, tuple[int, int]] = {}
        touched: set[int] = set()  # dependents, sources and writes of any node
        for n, s in enumerate(g.nodes):
            if isinstance(s, BRANCHES):
                branch_fv[n] = (fr[s.cond.left], fr[s.cond.right])
            ns = node_spec(s, method_id, self, summaries)
            nodes.append(ns)
            if ns.writes:  # every generated or bottom dependent is a write
                touched.update(ns.writes)
                touched.update(src for _, src in ns.gen)
        # the footprint: the method's formals and locals and the heap it touches
        seeds = (set(fr.values()) - {fr[RET]}) | (touched & self._heap)
        governing = self.model.governing(method_id)
        control: list[tuple[tuple[int, int], ...]] = []
        by_branches: dict[int, tuple[tuple[int, int], ...]] = {}
        for n, ns in enumerate(nodes):
            branches = governing[n]
            if not (ns.writes and branches):
                control.append(())
                continue
            pairs = by_branches.get(branches)
            if pairs is None:
                pairs = by_branches[branches] = tuple(
                    (b, v) for b in set_bits(branches) for v in branch_fv[b]
                )
            control.append(pairs)
        return _MethodSpec(g, nodes, control, tuple(seeds))

    def method_facts(self, method_id: str, summaries):
        """The method's exit facts over its whole-closure table, decoded,
        under the decoded callee summaries in `summaries`: every seed's
        identity at entry, then `round_robin`."""
        spec = self.spec(method_id, summaries)
        entry = {i: 1 << (i + SHIFT) for i in spec.seeds}
        return decode(self.reps, round_robin(spec, entry))
