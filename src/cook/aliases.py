"""Alias-aware naming: representatives, array partitions, write sets, RLV.

Aliasing is handled by naming rather than points-to facts: a field access is
named after the highest class declaring the field, so any two accesses through
compatible receivers collide, and an array access is named after its array's
partition in a flow-insensitive union-find over array-typed slots joined by
copies, call bindings, returns, and field traffic. All indices of a partition
are conservatively assumed to alias.

`observable_writes` harvests syntactic assignment targets without
feasibility checks, restricted to what the enclosing frame can observe: its
own scalars and the heap, where an internal call contributes its callees'
heap writes transitively (`heap_writes`). `reachable_lvalues` is the
write footprint visible through an actual parameter: every representative
reachable through its field structure (and array cells), excluding the
parameter itself.
"""

from __future__ import annotations

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
        partitions_from: "AliasAnalysis | None" = None,
    ):
        self.program = program
        self.sym = symbols
        self._uf: dict[tuple, tuple] = {}
        self._slot_order: list[tuple] = []
        self._part_ids: dict[tuple, int] = {}
        self._rlv_memo: dict[str, frozenset[Representative]] = {}
        self._writes_memo: dict[str, frozenset[Representative]] = {}
        if partitions_from is not None:
            # A rewritten program references partition ids baked into its
            # bottom assignments, so it must keep the donor's numbering; the
            # donor's joins are a sound superset of the rewritten program's.
            self._uf = dict(partitions_from._uf)
            self._slot_order = list(partitions_from._slot_order)
            self._part_ids = dict(partitions_from._part_ids)
        else:
            self._build_partitions()
        self._build_method_writes()

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

    def _field_slot(self, tf: TypeField) -> tuple:
        return self._slot((_FIELD, tf.type_name, tf.field_name))

    def _build_partitions(self) -> None:
        sym = self.sym
        # declare slots in program order so partition ids are deterministic
        for m in self.program.methods:
            if m.extern:
                continue
            env = sym.var_types[m.id]
            for p in list(m.formals) + list(m.locals):
                if ast.is_array_type(p.type):
                    self._var_slot(m.id, p.name)
            if ast.is_array_type(m.return_type):
                self._slot((_RETSLOT, m.id))
            del env
        for cls in self.program.classes:
            for f in cls.fields:
                if ast.is_array_type(f.type):
                    self._field_slot(self.field_rep_for(cls.name, f.name))

        for m in self.program.methods:
            if m.extern:
                continue
            env = sym.var_types[m.id]

            def arr(name: str) -> bool:
                t = env.get(name)
                return t is not None and ast.is_array_type(t)

            for s in ast.walk(m.body):
                if isinstance(s, ast.CopyAssign) and arr(s.target) and arr(s.source):
                    self._union((_VAR, m.id, s.target), (_VAR, m.id, s.source))
                elif isinstance(s, ast.FieldRead) and arr(s.target):
                    tf = self.field_rep(m.id, s.obj, s.field_name)
                    self._union((_VAR, m.id, s.target), (_FIELD, tf.type_name, tf.field_name))
                elif isinstance(s, ast.FieldWrite) and arr(s.source):
                    tf = self.field_rep(m.id, s.obj, s.field_name)
                    self._union((_FIELD, tf.type_name, tf.field_name), (_VAR, m.id, s.source))
                elif isinstance(s, ast.Return) and arr(s.value):
                    self._union((_RETSLOT, m.id), (_VAR, m.id, s.value))
                elif isinstance(s, ast.Call):
                    for callee in self.sym.resolve_call(m, s):
                        if callee.extern:
                            continue  # externs are modeled as pure stubs
                        for actual, formal in zip(s.actuals, callee.formals):
                            if arr(actual) and ast.is_array_type(formal.type):
                                self._union((_VAR, callee.id, formal.name), (_VAR, m.id, actual))
                        if arr(s.target) and ast.is_array_type(callee.return_type):
                            self._union((_VAR, m.id, s.target), (_RETSLOT, callee.id))

        # stable dense ids in slot-declaration order
        for key in self._slot_order:
            root = self._find(key)
            if root not in self._part_ids:
                self._part_ids[root] = len(self._part_ids)

    def partition_of(self, method_id: str, name: str) -> int:
        return self._part_ids[self._find(self._var_slot(method_id, name))]

    def partition_of_field(self, tf: TypeField) -> int:
        return self._part_ids[self._find(self._field_slot(tf))]

    # -- representatives -------------------------------------------------------

    def field_rep_for(self, class_name: str, field_name: str) -> TypeField:
        decl = self.sym.declaring_class(class_name, field_name)
        if decl is None:
            raise KeyError(f"type {class_name!r} has no field {field_name!r}")
        return TypeField(decl, field_name)

    def field_rep(self, method_id: str, obj: str, field_name: str) -> TypeField:
        otype = self.sym.var_types[method_id][obj]
        return self.field_rep_for(otype, field_name)

    def scalar(self, method_id: str, name: str) -> Scalar:
        return Scalar(method_id, name)

    def array_rep(self, method_id: str, name: str) -> ArrayPart:
        return ArrayPart(self.partition_of(method_id, name))

    # -- write sets --------------------------------------------------------------

    def _own_writes(self, m: ast.Method) -> set[Representative]:
        out: set[Representative] = set()
        for s in ast.walk(m.body):
            out |= self._stmt_targets(m.id, s)
        return out

    def _stmt_targets(self, method_id: str, s: ast.Stmt) -> set[Representative]:
        if isinstance(s, (ast.ConstAssign, ast.CopyAssign, ast.UnaryAssign, ast.BinaryAssign)):
            return {self.scalar(method_id, s.target)}
        if isinstance(s, (ast.FieldRead, ast.ArrayRead)):
            return {self.scalar(method_id, s.target)}
        if isinstance(s, ast.FieldWrite):
            return {self.field_rep(method_id, s.obj, s.field_name)}
        if isinstance(s, ast.ArrayWrite):
            return {self.array_rep(method_id, s.array)}
        if isinstance(s, ast.Call):
            return {self.scalar(method_id, s.target)}
        if isinstance(s, ast.Return):
            return {self.scalar(method_id, RET)}
        if isinstance(s, ast.BottomAssign):
            return set(s.targets)
        return set()

    def _build_method_writes(self) -> None:
        """Whole-body write sets, closed over internal calls (recursion safe)."""
        own: dict[str, set[Representative]] = {}
        callees: dict[str, set[str]] = {}
        for m in self.program.methods:
            if m.extern:
                continue
            own[m.id] = self._own_writes(m)
            outs: set[str] = set()
            for s in ast.walk(m.body):
                if isinstance(s, ast.Call):
                    for t in self.sym.resolve_call(m, s):
                        if not t.extern:
                            outs.add(t.id)
            callees[m.id] = outs

        writes = {mid: set(reps) for mid, reps in own.items()}
        changed = True
        while changed:
            changed = False
            for mid, outs in callees.items():
                for c in outs:
                    if not writes[c] <= writes[mid]:
                        writes[mid] |= writes[c]
                        changed = True
        self._writes_memo = {mid: frozenset(reps) for mid, reps in writes.items()}
        self._heap_memo = {
            mid: frozenset(r for r in reps if not isinstance(r, Scalar))
            for mid, reps in writes.items()
        }

    def heap_writes(self, method_id: str) -> frozenset[Representative]:
        """Field and array representatives a call of the method may write,
        through its callees too: all a caller can observe of its writes
        under call by value."""
        return self._heap_memo[method_id]

    def written_reps(self, method_id: str, stmt: ast.Stmt | ast.Block) -> frozenset[Representative]:
        """Representatives of every syntactic write inside `stmt`.

        Internal calls contribute their callee's whole write set transitively,
        callee-frame scalars included. Only `analysis.node_spec` reads this,
        for a node's control-dependence writes, and that is a known defect:
        the callee scalars survive `strip_locals` as junk summary facts
        (`test_dead_guarded_call_leaves_no_callee_frame_facts` is a strict
        xfail until `observable_writes` replaces it there).
        """
        m = self.sym.methods[method_id]
        out: set[Representative] = set()
        for s in ast.walk(stmt):
            out |= self._stmt_targets(method_id, s)
            if isinstance(s, ast.Call):
                for t in self.sym.resolve_call(m, s):
                    if not t.extern:
                        out |= self._writes_memo[t.id]
        return frozenset(out)

    def observable_writes(
        self,
        method_id: str,
        stmt: ast.Stmt | ast.Block,
        api_set: frozenset[str] | None = None,
    ) -> frozenset[Representative]:
        """Representatives of every syntactic write inside `stmt` that this
        frame can observe: its own scalars and the heap. Callee frames
        contribute only their heap effects (and reachable l-values for
        divergent API calls); their scalar names are fresh locations,
        colliding with ours only in name on self calls."""
        m = self.sym.methods[method_id]
        out: set[Representative] = set()
        for s in ast.walk(stmt):
            for rep in self._stmt_targets(method_id, s):
                if not isinstance(rep, Scalar) or rep.method == method_id:
                    out.add(rep)
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
