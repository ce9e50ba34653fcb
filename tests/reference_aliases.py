"""The alias walk as it was before `cook.aliases` picked each statement's
kind once and kept only the heap, kept as the reference for
`tests/test_aliases.py` and for the write sets of `cook.analysis`'s node
tables.

`ReferenceAliases` is an `AliasAnalysis` whose body walk asks `isinstance`
of every statement in turn and builds a fresh target set per statement,
with one `Scalar` for every statement that writes a scalar. It walks every
body, also when it is derived from a `base`, whose partition numbering it
then takes. It closes every write set over callees, the scalars of their
frames included (`call_writes`), and gives the writes of any statement
with its calls' closed sets (`written_reps`). `cook.aliases` closes only
the heap (`heap_writes`), and `cook.analysis` takes the frame slots a call
writes from the callees' node tables, after the fixpoint; these are what
both must equal. Everything
else is `AliasAnalysis`'s own, so a test can compare the partitions,
targets, call rows and write sets the two walks give for the same program.

It also keeps the reachable l-value walk as it was before each class was
visited once: every runtime class of a type takes all its fields through
`Symbols.all_fields`, which walks the whole superclass chain again.
"""

from __future__ import annotations

from cook.aliases import _FIELD, _RETSLOT, _VAR, AliasAnalysis
from cook.analysis import Analyzer
from cook.callgraph import strongly_connected_components
from cook.lang import ast
from cook.pipeline import ProgramModel
from cook.representatives import ArrayPart, Representative, Scalar, TypeField


def reference_of(model: ProgramModel) -> "ReferenceAliases":
    """The reference walk of a model's program, in the partition numbering
    of the model's own alias analysis."""
    return ReferenceAliases(model.program, model.symbols, base=model.aliases)


def node_table_writes(model: ProgramModel) -> dict[str, frozenset[Representative]]:
    """Each method's write set as the analysis records it, its node table's
    writes with its callees' frame slots (`Analyzer.call_writes`), decoded.
    The tables are built callees first, so the model must have no call
    cycle."""
    an = Analyzer(model)
    empty = dict.fromkeys(model.methods, {})  # a node's writes need no summary
    for mid in model.analysis_order():
        an.spec(mid, empty)
    return {mid: frozenset(an._reps[i] for i in an.call_writes(mid)) for mid in model.methods}


class ReferenceAliases(AliasAnalysis):
    def _rlv_type(self, type_name: str) -> frozenset[Representative]:
        memo = self._rlv_memo.get(type_name)
        if memo is not None:
            return memo
        out: set[Representative] = set()
        seen_types: set[str] = set()
        work = [type_name]
        while work:
            t = work.pop()
            if t in seen_types or t == ast.INT:
                continue
            seen_types.add(t)
            if ast.is_array_type(t):
                work.append(ast.elem_type(t))
                continue
            for cls in sorted(self.sym.runtime_types(t)):
                for decl, fname, ftype in self.sym.all_fields(cls):
                    tf = TypeField(decl, fname)
                    out.add(tf)
                    if ast.is_array_type(ftype):
                        out.add(ArrayPart(self.partition_of_field(tf)))
                        if ast.elem_type(ftype) != ast.INT:
                            work.append(ast.elem_type(ftype))
                    elif ftype != ast.INT:
                        work.append(ftype)
        result = frozenset(out)
        self._rlv_memo[type_name] = result
        return result

    def _stmt_targets(self, method_id: str, s: ast.Stmt) -> set[Representative]:
        if isinstance(s, ast.FieldWrite):
            return {self.field_rep(method_id, s.obj, s.field_name)}
        if isinstance(s, ast.ArrayWrite):
            return {self.array_rep(method_id, s.array)}
        if isinstance(s, ast.BottomAssign):
            return set(s.targets)
        return {Scalar(method_id, name) for name in ast.scalar_writes(s, method_id)}

    def _build_method_writes(self, base: "AliasAnalysis | None") -> None:
        """Joins, targets and call rows from one walk per body, then the
        write sets closed over internal calls; the joins only without a
        `base`."""
        join = base is None
        targets: dict[str, frozenset[Representative]] = {}
        calls: dict[str, tuple[str, ...]] = {}
        walked: dict[str, tuple[set[Representative], set[str]]] = {}
        for m in self.program.methods:
            if m.extern:
                continue
            env = self.sym.var_types[m.id]

            def arr(name: str) -> bool:
                t = env.get(name)
                return t is not None and ast.is_array_type(t)

            reps: set[Representative] = set()
            arrays: set[str] = set()  # numbered once every join is made
            row: dict[str, None] = {}  # internal callees, each once, in first-call order
            for s in ast.walk(m.body):
                if isinstance(s, ast.ArrayWrite):
                    arrays.add(s.array)
                else:
                    reps |= self._stmt_targets(m.id, s)
                if isinstance(s, ast.Call):
                    for callee in self.sym.resolve_call(m, s):
                        if callee.extern:
                            continue  # externs are pure stubs and sinks of the rewrite
                        row[callee.id] = None
                        if not join:
                            continue
                        for actual, formal in zip(s.actuals, callee.formals):
                            if arr(actual) and ast.is_array_type(formal.type):
                                self._union((_VAR, callee.id, formal.name), (_VAR, m.id, actual))
                        if arr(s.target) and ast.is_array_type(callee.return_type):
                            self._union((_VAR, m.id, s.target), (_RETSLOT, callee.id))
                elif not join:
                    continue
                elif isinstance(s, ast.CopyAssign) and arr(s.target) and arr(s.source):
                    self._union((_VAR, m.id, s.target), (_VAR, m.id, s.source))
                elif isinstance(s, ast.FieldRead) and arr(s.target):
                    tf = self.field_rep(m.id, s.obj, s.field_name)
                    self._union((_VAR, m.id, s.target), (_FIELD, tf.type_name, tf.field_name))
                elif isinstance(s, ast.FieldWrite) and arr(s.source):
                    tf = self.field_rep(m.id, s.obj, s.field_name)
                    self._union((_FIELD, tf.type_name, tf.field_name), (_VAR, m.id, s.source))
                elif isinstance(s, ast.Return) and arr(s.value):
                    self._union((_RETSLOT, m.id), (_VAR, m.id, s.value))
            walked[m.id], calls[m.id] = (reps, arrays), tuple(row)
        if join:
            # stable dense ids in slot-declaration order
            for key in self._slot_order:
                root = self._find(key)
                if root not in self._part_ids:
                    self._part_ids[root] = len(self._part_ids)
        for mid, (reps, arrays) in walked.items():
            targets[mid] = frozenset(reps | {self.array_rep(mid, a) for a in arrays})
        writes: dict[str, frozenset[Representative]] = {}
        heap: dict[str, frozenset[Representative]] = {}
        for scc in strongly_connected_components(tuple(calls), calls):
            reps = set()
            for mid in scc:
                reps |= targets[mid]
                for callee in calls[mid]:
                    reps |= writes.get(callee, frozenset())  # absent: same SCC
            shared = frozenset(reps)
            shared_heap = frozenset(r for r in shared if not isinstance(r, Scalar))
            for mid in scc:
                writes[mid] = shared
                heap[mid] = shared_heap
        self._targets = targets
        # internal callees per method, for the call graph
        self.calls = calls
        self._writes_memo = writes
        self._heap_memo = heap

    def call_writes(self, method_id: str) -> frozenset[Representative]:
        """Every representative a call of the method may write, through its
        callees too, the scalars of their frames included."""
        return self._writes_memo[method_id]

    def written_reps(self, method_id: str, stmt: ast.Stmt | ast.Block) -> frozenset[Representative]:
        """Representatives of every syntactic write inside `stmt`, where an
        internal call adds its target's whole write set (`call_writes`),
        callee-frame scalars included: what `cook.analysis.node_spec` gives
        a node as its writes, with the frame slots that `CalleeFrames` adds
        after the fixpoint. That a call's writes hold callee scalars is a
        known defect: they survive `strip_locals` as junk summary facts
        (`test_dead_guarded_call_leaves_no_callee_frame_facts` is a strict
        xfail until only `heap_writes` is taken there)."""
        m = self.sym.methods[method_id]
        out: set[Representative] = set()
        for s in ast.walk(stmt):
            out |= self._stmt_targets(method_id, s)
            if isinstance(s, ast.Call):
                for t in self.sym.resolve_call(m, s):
                    if not t.extern:
                        out |= self.call_writes(t.id)
        return frozenset(out)
