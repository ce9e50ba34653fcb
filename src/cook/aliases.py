"""Alias-aware naming: representatives, array partitions, write sets, RLV.

Aliasing is handled by naming rather than points-to facts: a field access is
named after the class declaring the field, so any two accesses through
compatible receivers collide, and an array access is named after its array's
partition in a flow-insensitive union-find over array-typed slots joined by
copies, call bindings, returns, and field traffic. All indices of a partition
are conservatively assumed to alias.

`observable_writes` harvests syntactic assignment targets without
feasibility checks: what the enclosing frame can observe, its own scalars
and the heap, where an internal call contributes its callees' heap writes
transitively (`heap_writes`). The scalars a statement writes are
`ast.scalar_writes`; field and array writes map to their representatives.

Each method body is walked once: the walk applies the body's partition
joins, collects its heap write targets and resolves each call once, for the
joins and the call row alike; an array-cell target waits, by array name, for
the last join before its partition is numbered. The walk picks each
statement's kind once, by `type(s)` (the statement classes have no
subclasses). It keeps only the heap: field and array writes and the field
and partition targets of a bottom assignment, so it makes no `Scalar`. It
alone validates bottom targets: a target must name a formal, local or `ret`
of the method the assignment is in, a field by its declaring class, or a
partition of the program, and any other is a `CheckDiagnostic` at its
statement (`_bad_target`). The rewrite replaces a divergent construct with
a bottom assignment over what the enclosing frame can observe, so it never
names another method's scalar. A method's heap write set is closed over its
callees in one pass over the call graph's strongly connected components,
callees first, and the members of a component share one set
(`heap_writes`). This is the only closure over callees here, and the
dependence analysis's call nodes write it; the scalars a call writes in its
callees' frames, which no caller reads, are added after its fixpoint
(`analysis.CalleeFrames.frame_writes`). The call rows are the call graph's
(`calls`), so calls are resolved once per program.

The heap is numbered here: the declared fields, in class and declaration
order, then the array partitions are ids 0 to H - 1 (`heap`, `heap_id`). One
memo, by a receiver's static type and a field name, gives a field access its
id (`field_id`) and, through `heap`, its representative (`field_rep`).

The analysis of a rewritten program is derived from the analysis of the
program the rewrite started from (`base`). It keeps the base's partition
numbering, which the rewrite's bottom assignments name, and its heap ids,
and every method the rewrite returned unchanged keeps the heap targets and
call row found there. The heap closure is recomputed: an unchanged caller of
a rewritten callee writes what the rewritten callee now writes.

`reachable_lvalues` is the
write footprint visible through an actual parameter: every representative
reachable through its field structure (and array cells), excluding the
parameter itself.
"""

from __future__ import annotations

from .callgraph import strongly_connected_components
from .errors import CheckDiagnostic
from .lang import ast
from .lang.check import Symbols
from .representatives import ArrayPart, Representative, Scalar, TypeField

RET = "ret"

# union-find slot keys
_VAR = "v"
_FIELD = "f"
_RETSLOT = "r"


class AliasAnalysis:
    def __init__(
        self,
        program: ast.Program,
        symbols: Symbols,
        base: "AliasAnalysis | None" = None,
    ):
        """`base` is the analysis of the program this one was rewritten from."""
        self.program = program
        self.sym = symbols
        self._uf: dict[tuple, tuple] = {}
        self._slot_order: list[tuple] = []
        self._part_ids: dict[tuple, int] = {}
        self._rlv_memo: dict[str, frozenset[Representative]] = {}
        self.heap: list[TypeField | ArrayPart] = []  # by heap id: the fields, then the partitions
        self._field_ids: dict[tuple[str, str], int] = {}  # by receiver static type and field name
        if base is not None:
            # A rewritten program references partition ids baked into its
            # bottom assignments, so it must keep the base's numbering; the
            # base's joins are a sound superset of the rewritten program's.
            self._uf = dict(base._uf)
            self._slot_order = list(base._slot_order)
            self._part_ids = dict(base._part_ids)
            self.heap, self._field_ids, self._parts_at = base.heap, base._field_ids, base._parts_at
        else:
            self._declare_slots()
        self._build_method_writes(base)

    # -- partitions -----------------------------------------------------------

    def _slot(self, key: tuple) -> tuple:
        if key not in self._uf:
            self._uf[key] = key
            self._slot_order.append(key)
        return key

    def _find(self, key: tuple) -> tuple:
        root = key
        while self._uf[root] != root:
            root = self._uf[root]
        while self._uf[key] != root:
            self._uf[key], key = root, self._uf[key]
        return root

    def _union(self, a: tuple, b: tuple) -> None:
        ra, rb = self._find(self._slot(a)), self._find(self._slot(b))
        if ra != rb:
            self._uf[rb] = ra

    def _var_slot(self, method_id: str, name: str) -> tuple:
        return self._slot((_VAR, method_id, name))

    def _declare_slots(self) -> None:
        """Every array-typed slot, in program order, before any join, so
        partition ids are deterministic, and each declared field's heap id."""
        for m in self.program.methods:
            if m.extern:
                continue
            for p in list(m.formals) + list(m.locals):
                if ast.is_array_type(p.type):
                    self._var_slot(m.id, p.name)
            if ast.is_array_type(m.return_type):
                self._slot((_RETSLOT, m.id))
        for cls in self.program.classes:
            for f in cls.fields:
                self._field_ids[cls.name, f.name] = len(self.heap)
                self.heap.append(TypeField(cls.name, f.name))
                if ast.is_array_type(f.type):
                    self._slot((_FIELD, cls.name, f.name))
        self._parts_at = len(self.heap)

    def partition_of(self, method_id: str, name: str) -> int:
        return self._part_ids[self._find(self._var_slot(method_id, name))]

    def partition_of_field(self, tf: TypeField) -> int:
        return self._part_ids[self._find(self._slot((_FIELD, tf.type_name, tf.field_name)))]

    # -- heap ids and representatives -----------------------------------------

    def field_id_for(self, type_name: str, field_name: str) -> int:
        """The heap id of the field a `type_name` receiver names: its declaring class's."""
        key = (type_name, field_name)
        if key not in self._field_ids:
            self._field_ids[key] = self._field_ids[self.sym.field(*key)[0], field_name]
        return self._field_ids[key]

    def field_id(self, method_id: str, obj: str, field_name: str) -> int:
        return self.field_id_for(self.sym.var_types[method_id][obj], field_name)

    def array_id(self, method_id: str, name: str) -> int:
        return self._parts_at + self.partition_of(method_id, name)

    def heap_id(self, rep: TypeField | ArrayPart) -> int:
        """The heap id of an array partition, or of a field named by its declaring class."""
        if type(rep) is ArrayPart:
            return self._parts_at + rep.part
        return self._field_ids[rep.type_name, rep.field_name]

    def field_rep_for(self, class_name: str, field_name: str) -> TypeField:
        return self.heap[self.field_id_for(class_name, field_name)]

    def field_rep(self, method_id: str, obj: str, field_name: str) -> TypeField:
        return self.heap[self.field_id(method_id, obj, field_name)]

    def array_rep(self, method_id: str, name: str) -> ArrayPart:
        return ArrayPart(self.partition_of(method_id, name))

    # -- write sets --------------------------------------------------------------

    def _stmt_targets(self, method_id: str, s: ast.Stmt) -> set[Representative]:
        kind = type(s)
        if kind is ast.FieldWrite:
            return {self.field_rep(method_id, s.obj, s.field_name)}
        if kind is ast.ArrayWrite:
            return {self.array_rep(method_id, s.array)}
        if kind is ast.BottomAssign:
            return set(s.targets)
        return {Scalar(method_id, name) for name in ast.scalar_writes(s)}

    def _build_method_writes(self, base: "AliasAnalysis | None") -> None:
        """Joins, heap targets and call rows from one walk per body, then the
        heap write sets closed over internal calls, as the module docstring
        says; a method that is the same object in `base`'s program is not
        walked."""
        join = base is None
        targets: dict[str, frozenset[Representative]] = {}
        calls: dict[str, tuple[str, ...]] = {}
        walked: dict[str, tuple[set[Representative], set[str]]] = {}
        # checked, with the method each is in, once every partition is numbered
        bottoms: list[tuple[str, ast.BottomAssign]] = []
        for m in self.program.methods:
            if m.extern:
                continue
            if base is not None and base.sym.methods.get(m.id) is m:
                targets[m.id], calls[m.id] = base._targets[m.id], base.calls[m.id]
                continue
            env = self.sym.var_types[m.id]

            def arr(name: str) -> bool:
                t = env.get(name)
                return t is not None and ast.is_array_type(t)

            reps: set[Representative] = set()  # field and heap bottom targets
            arrays: set[str] = set()  # numbered once every join is made
            row: dict[str, None] = {}  # internal callees, each once, in first-call order
            for s in ast.walk(m.body):
                kind = type(s)
                if kind is ast.ArrayWrite:
                    arrays.add(s.array)
                    continue
                if kind is ast.FieldWrite:
                    tf = self.field_rep(m.id, s.obj, s.field_name)
                    reps.add(tf)
                    if join and arr(s.source):
                        self._union((_FIELD, tf.type_name, tf.field_name), (_VAR, m.id, s.source))
                    continue
                if kind is ast.BottomAssign:
                    reps.update(t for t in s.targets if type(t) is not Scalar)
                    bottoms.append((m.id, s))
                    continue
                if kind is ast.Call:
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
                elif kind is ast.CopyAssign and arr(s.target) and arr(s.source):
                    self._union((_VAR, m.id, s.target), (_VAR, m.id, s.source))
                elif kind is ast.FieldRead and arr(s.target):
                    tf = self.field_rep(m.id, s.obj, s.field_name)
                    self._union((_VAR, m.id, s.target), (_FIELD, tf.type_name, tf.field_name))
                elif kind is ast.Return and arr(s.value):
                    self._union((_RETSLOT, m.id), (_VAR, m.id, s.value))
            walked[m.id], calls[m.id] = (reps, arrays), tuple(row)
        if join:
            # stable dense ids in slot-declaration order
            for key in self._slot_order:
                root = self._find(key)
                if root not in self._part_ids:
                    self._part_ids[root] = len(self._part_ids)
            self.heap += map(ArrayPart, range(len(self._part_ids)))
        for mid, s in bottoms:
            for t in s.targets:
                bad = self._bad_target(mid, t)
                if bad is not None:
                    raise CheckDiagnostic(bad, s.loc.line, s.loc.col, s.loc.file)
        for mid, (reps, arrays) in walked.items():
            reps.update([self.array_rep(mid, a) for a in arrays])
            targets[mid] = frozenset(reps)
        heap: dict[str, frozenset[Representative]] = {}
        for scc in strongly_connected_components(tuple(calls), calls):
            reps = set()
            for mid in scc:
                reps |= targets[mid]
                for callee in calls[mid]:
                    reps |= heap.get(callee, frozenset())  # absent: same SCC
            shared = frozenset(reps)
            for mid in scc:
                heap[mid] = shared
        self._targets = targets
        # internal callees per method, for the call graph
        self.calls = calls
        self._heap_memo = heap

    def _bad_target(self, method_id: str, t: Representative) -> str | None:
        """Why a bottom target in method `method_id` names no location that
        the method's frame can observe, or None: a location is a formal,
        local or `ret` of `method_id`, a field named by its declaring class,
        or a partition numbered here."""
        sym, kind = self.sym, type(t)
        if kind is Scalar:
            if t.method != method_id:
                return f"bottom target {t.render()!r} is not a scalar of method {method_id!r}"
            if t.name != RET and t.name not in sym.var_types[method_id]:
                return f"unknown identifier {t.name!r}"
        elif kind is TypeField:
            if t.type_name not in sym.classes:
                return f"unknown class {t.type_name!r} in bottom target"
            found = sym.field(t.type_name, t.field_name)
            if found is None:
                return f"class {t.type_name!r} has no field {t.field_name!r}"
            if found[0] != t.type_name:  # a field is named by its declaring class
                return f"field {t.field_name!r} is declared in {found[0]!r}"
        elif kind is ArrayPart and not 0 <= t.part < len(self._part_ids):
            return "negative array partition" if t.part < 0 else f"no array partition {t.part}"
        return None

    def heap_writes(self, method_id: str) -> frozenset[Representative]:
        """Field and array representatives a call of the method may write,
        through its callees too: all a caller can observe of its writes
        under call by value."""
        return self._heap_memo[method_id]

    def observable_writes(
        self,
        method_id: str,
        stmt: ast.Stmt | ast.Block,
        api_set: frozenset[str] | None = None,
    ) -> frozenset[Representative]:
        """Representatives of every syntactic write inside `stmt` that this
        frame can observe: its own scalars and the heap, as every bottom
        target names (`_bad_target`). Callee frames contribute only their
        heap effects (and reachable l-values for divergent API calls); their
        scalar names are fresh locations, colliding with ours only in name on
        self calls."""
        m = self.sym.methods[method_id]
        out: set[Representative] = set()
        for s in ast.walk(stmt):
            out |= self._stmt_targets(method_id, s)
            if isinstance(s, ast.Call):
                for t in self.sym.resolve_call(m, s):
                    if not t.extern:
                        out |= self._heap_memo[t.id]
                    elif api_set is not None and t.name in api_set:
                        for actual in s.actuals:
                            out |= self.reachable_lvalues(method_id, actual)
        return frozenset(out)

    # -- reachable l-values -----------------------------------------------------

    def reachable_lvalues(self, method_id: str, name: str) -> frozenset[Representative]:
        """RLV of an actual parameter: scalars reach nothing; references reach
        every field (and array cell) representative through their structure."""
        t = self.sym.var_types[method_id][name]
        if t == ast.INT:
            return frozenset()
        if ast.is_array_type(t):
            out = {ArrayPart(self.partition_of(method_id, name))}
            elem = ast.elem_type(t)
            if elem != ast.INT:
                out |= self._rlv_type(elem)
            return frozenset(out)
        return self._rlv_type(t)

    def _rlv_type(self, type_name: str) -> frozenset[Representative]:
        """Every field and array cell a `type_name` reaches. A type's runtime
        classes are the preorder slices (`Symbols.span`) of it or of the
        classes implementing it, and a class walked before is skipped with
        its subtree; from each slice the walk goes up the chain only to the
        first class whose own fields were taken, as its superclasses' were."""
        memo = self._rlv_memo.get(type_name)
        if memo is not None:
            return memo
        classes, span, preorder = self.sym.classes, self.sym.span, self.sym.preorder
        out: set[Representative] = set()
        seen_types: set[str] = set()
        walked: set[str] = set()  # classes whose subtree is walked
        taken: set[str] = set()  # classes whose own fields are taken
        work = [type_name]

        def take(cls: str) -> None:
            taken.add(cls)
            for f in classes[cls].fields:
                tf = TypeField(cls, f.name)
                out.add(tf)
                if ast.is_array_type(f.type):
                    out.add(ArrayPart(self.partition_of_field(tf)))
                work.append(f.type)

        while work:
            t = work.pop()
            if t in seen_types or t == ast.INT:
                continue
            seen_types.add(t)
            if ast.is_array_type(t):
                work.append(ast.elem_type(t))
                continue
            for root in (t,) if t in span else self.sym.runtime_types(t):
                pos, end = span[root]
                while pos < end:
                    cls = preorder[pos]
                    if cls in walked:
                        pos = span[cls][1]
                        continue
                    walked.add(cls)
                    if cls not in taken:
                        take(cls)
                    pos += 1
                cls = classes[root].superclass
                while cls is not None and cls not in taken:
                    take(cls)
                    cls = classes[cls].superclass
        result = frozenset(out)
        self._rlv_memo[type_name] = result
        return result
