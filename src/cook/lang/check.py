"""Static well-formedness checking and the symbol table.

`check` enforces everything the later passes rely on: unique names, acyclic
inheritance, declared types, declared identifiers, per-form typing, mandatory
returns on every path (so the return slot is always bound), and no unreachable
statements. It returns a `Symbols` table used by every downstream pass. The
targets of a bottom assignment are left to the alias analysis to validate.

Once the hierarchy is known to be acyclic, `build_closures` records it in
the table before any method body is checked: `span` numbers the class forest
in preorder, so a class's subclasses are one interval, and `ifaces` holds
each type's interface supertypes. Together they are the supertype relation,
which `assignable` tests and `runtime_types` inverts. Per member name, the
tables give the nearest declaration at or above each position, so `field`
and `lookup_method` are binary searches (fields are never shadowed). Call
targets are found once per receiver type and callee name, when first asked.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field
from graphlib import CycleError, TopologicalSorter

from ..errors import CheckDiagnostic
from . import ast

FieldInfo = tuple[str, str, str]  # (declaring class, field name, type)
# name -> the preorder positions where the nearest declaration of the name
# changes, from 0 on, and from each on the declaration (a field's `FieldInfo`,
# a method's id) or None
Table = dict[str, tuple[list[int], list]]


@dataclass
class Symbols:
    classes: dict[str, ast.ClassDecl] = dc_field(default_factory=dict)
    interfaces: dict[str, ast.InterfaceDecl] = dc_field(default_factory=dict)
    methods: dict[str, ast.Method] = dc_field(default_factory=dict)
    free_methods: dict[str, ast.Method] = dc_field(default_factory=dict)
    class_method_names: set[str] = dc_field(default_factory=set)
    var_types: dict[str, dict[str, str]] = dc_field(default_factory=dict)
    span: dict[str, tuple[int, int]] = dc_field(default_factory=dict)  # (position, end of subtree)
    preorder: list[str] = dc_field(default_factory=list)
    ifaces: dict[str, frozenset[str]] = dc_field(default_factory=dict)
    field_table: Table = dc_field(default_factory=dict)
    method_table: Table = dc_field(default_factory=dict)
    targets: dict[tuple[str, str], list[ast.Method]] = dc_field(default_factory=dict)

    # -- hierarchy -----------------------------------------------------------

    def _nearest(self, table: Table, cname: str, name: str):
        starts, found = table.get(name, ((0,), (None,)))
        return found[bisect_right(starts, self.span[cname][0]) - 1]

    def field(self, cname: str, fname: str) -> FieldInfo | None:
        """(declaring class, name, type) of field `fname` of class `cname`."""
        return self._nearest(self.field_table, cname, fname)

    def all_fields(self, cname: str) -> list[FieldInfo]:
        """(declaring class, name, type) of every field of `cname`, its own
        first and then up the chain."""
        out: list[FieldInfo] = []
        cur: str | None = cname
        while cur is not None:
            out += [(cur, f.name, f.type) for f in self.classes[cur].fields]
            cur = self.classes[cur].superclass
        return out

    def runtime_types(self, declared: str) -> set[str]:
        """All classes a reference of the declared type may hold at runtime."""
        if declared in self.span:
            lo, hi = self.span[declared]
            return set(self.preorder[lo:hi])
        if declared in self.interfaces:
            return {c for c in self.classes if declared in self.ifaces[c]}
        raise CheckDiagnostic(f"unknown type {declared!r}")

    def lookup_method(self, cname: str, mname: str) -> ast.Method | None:
        """Nearest declaration of `mname` at or above class `cname`."""
        return self.methods.get(self._nearest(self.method_table, cname, mname))

    def call_signature(self, caller: ast.Method, call: ast.Call) -> ast.Method:
        """The declaration a call site is typed against: for virtual calls the
        nearest declaration on the receiver's static type, else the free method."""
        if call.callee in self.class_method_names:
            if not call.actuals:
                raise _err(f"virtual call to {call.callee!r} needs a receiver argument", call.loc)
            rtype = self.var_types[caller.id].get(call.actuals[0])
            if rtype is None or rtype not in self.classes:
                raise _err(f"receiver of {call.callee!r} must be a class instance", call.loc)
            decl = self.lookup_method(rtype, call.callee)
            if decl is None:
                raise _err(f"no method {call.callee!r} on type {rtype!r}", call.loc)
            return decl
        m = self.free_methods.get(call.callee)
        if m is None:
            raise _err(f"call to undeclared method {call.callee!r}", call.loc)
        return m

    def resolve_call(self, caller: ast.Method, call: ast.Call) -> list[ast.Method]:
        """Possible targets of a call site (overrides included for virtual
        calls), in the order of their runtime classes' names."""
        decl = self.call_signature(caller, call)
        if decl.owner is None:
            return [decl]
        key = (self.var_types[caller.id][call.actuals[0]], call.callee)
        targets = self.targets.get(key)
        if targets is None:
            found = (self.lookup_method(c, call.callee) for c in sorted(self.runtime_types(key[0])))
            targets = self.targets[key] = list({m.id: m for m in found}.values())
        return targets

    def assignable(self, src: str, dst: str) -> bool:
        """Whether a `src` value may be stored where `dst` is declared: `dst`
        is `src` or one of its supertypes. Arrays are invariant."""
        if src == dst or dst in self.ifaces.get(src, ()):
            return True
        span = self.span.get(dst)
        return span is not None and src in self.span and span[0] <= self.span[src][0] < span[1]


def _err(msg: str, loc: ast.Loc) -> CheckDiagnostic:
    return CheckDiagnostic(msg, loc.line, loc.col, loc.file)


class _Checker:
    def __init__(self, program: ast.Program):
        self.p = program
        self.sym = Symbols()

    def run(self, base: Symbols | None) -> Symbols:
        self.declare()
        sym = self.sym
        if base is not None:
            sym.span, sym.preorder, sym.ifaces = base.span, base.preorder, base.ifaces
            sym.field_table, sym.method_table = base.field_table, base.method_table
            sym.var_types = base.var_types
            return sym
        self.check_hierarchy()
        self.build_closures()
        for m in self.p.methods:
            if not m.extern:
                self.check_method(m)
        return sym

    # -- declarations ----------------------------------------------------

    def declare(self) -> None:
        sym = self.sym
        for cls in self.p.classes:
            if cls.name in sym.classes or cls.name in sym.interfaces:
                raise _err(f"duplicate type name {cls.name!r}", cls.loc)
            sym.classes[cls.name] = cls
        for iface in self.p.interfaces:
            if iface.name in sym.classes or iface.name in sym.interfaces:
                raise _err(f"duplicate type name {iface.name!r}", iface.loc)
            sym.interfaces[iface.name] = iface
        for m in self.p.methods:
            if m.extern and m.owner is not None:
                raise _err("extern methods must be free", m.loc)
            if m.id in sym.methods:
                raise _err(f"duplicate method {m.id!r}", m.loc)
            sym.methods[m.id] = m
            if m.owner is None:
                sym.free_methods[m.name] = m
            else:
                sym.class_method_names.add(m.name)
        for name in sym.free_methods:
            if name in sym.class_method_names:
                raise _err(
                    f"method name {name!r} is declared both free and in a class",
                    sym.free_methods[name].loc,
                )
        for m in self.p.methods:
            if m.owner is not None and m.owner not in sym.classes:
                raise _err(f"unknown owner class {m.owner!r}", m.loc)

    def check_type(self, t: str, loc: ast.Loc) -> None:
        base = ast.elem_type(t) if ast.is_array_type(t) else t
        if ast.is_array_type(base):
            raise _err("nested array types are not supported", loc)
        if base != ast.INT and base not in self.sym.classes and base not in self.sym.interfaces:
            raise _err(f"unknown type {base!r}", loc)

    def check_hierarchy(self) -> None:
        sym = self.sym
        for cls in self.p.classes:
            if cls.superclass is not None and cls.superclass not in sym.classes:
                raise _err(f"unknown superclass {cls.superclass!r}", cls.loc)
            for iname in cls.interfaces:
                if iname not in sym.interfaces:
                    raise _err(f"{iname!r} is not an interface", cls.loc)
            for f in cls.fields:
                self.check_type(f.type, f.loc)
            names = [f.name for f in cls.fields]
            if len(names) != len(set(names)):
                raise _err(f"duplicate field in class {cls.name!r}", cls.loc)
        for iface in self.p.interfaces:
            for sup in iface.extends:
                if sup not in sym.interfaces:
                    raise _err(f"{sup!r} is not an interface", iface.loc)
        # extends must be acyclic for classes and interfaces alike; the order
        # lists every type after its direct supertypes, `supers`
        self.supers = {i.name: i.extends for i in self.p.interfaces}
        for cls in self.p.classes:
            self.supers[cls.name] = ((cls.superclass,) if cls.superclass else ()) + cls.interfaces
        try:
            self.order = list(TopologicalSorter(self.supers).static_order())
        except CycleError as err:
            placed: set[str] = set()  # classes whose chain is known to end
            for cls in self.p.classes:
                path: set[str] = set()
                cur: str | None = cls.name
                while cur is not None and cur not in placed:
                    if cur in path:
                        raise _err(f"inheritance cycle through {cls.name!r}", cls.loc) from None
                    path.add(cur)
                    cur = sym.classes[cur].superclass
                placed |= path
            # the cycle found runs through interfaces; a diamond is no cycle
            iface = next(i for i in self.p.interfaces if i.name in err.args[1])
            raise _err(f"interface cycle through {iface.name!r}", iface.loc) from None

    def build_closures(self) -> None:
        """Record the acyclic hierarchy: `span`, `preorder`, `ifaces` and the
        tables of nearest declarations. The sweep that builds the tables also
        finds shadowed fields and overrides that change a signature."""
        sym = self.sym
        # number the forest as `cfg.dominator_tree` does: subtree sizes children
        # first, then each class takes the next free interval in its superclass's
        size = dict.fromkeys([None, *sym.classes], 1)
        for name in reversed(self.order):
            if name in sym.classes:
                size[sym.classes[name].superclass] += size[name]
        free: dict[str | None, int] = {None: 0}
        sym.preorder = list(sym.classes)
        for name in self.order:
            inherited = [sym.ifaces[t] for t in self.supers[name]]
            if name in sym.interfaces:
                sym.ifaces[name] = frozenset((name,)).union(*inherited)
                continue
            # a class with one direct supertype shares its set
            sym.ifaces[name] = inherited[0] if len(inherited) == 1 else frozenset().union(*inherited)
            sup = sym.classes[name].superclass
            pos = free[sup]
            free[sup] += size[name]
            free[name] = pos + 1
            sym.span[name] = (pos, pos + size[name])
            sym.preorder[pos] = name
        fields = ((f.name, c.name, (c.name, f.name, f.type)) for c in self.p.classes for f in c.fields)
        sym.field_table, shadowing = self.by_position(fields)
        methods = ((m.name, m.owner, m.id) for m in self.p.methods if m.owner is not None)
        sym.method_table, overriding = self.by_position(methods)
        shadowed = [sym.span[cls] for (cls, _, _), above in shadowing if above is not None]
        for cls in self.p.classes if shadowed else ():
            if any(lo <= sym.span[cls.name][0] < hi for lo, hi in shadowed):
                raise _err(f"field shadowing in hierarchy of {cls.name!r}", cls.loc)
        # class methods take their receiver first; overrides must preserve the
        # rest of the signature (the receiver formal narrows naturally). This
        # is the nearest declaration above each method with another signature:
        # equal signatures stay equal, so it is also its overridden method's
        differs: dict[str, str | None] = {}  # method id -> declaration id
        for mid, above in overriding:
            if above is not None:
                old, new = ([p.type for p in m.formals[1:]] + [m.return_type]
                            for m in (sym.methods[above], sym.methods[mid]))
                differs[mid] = differs.get(above) if old == new else above
        for m in self.p.methods:
            if m.owner is not None and not m.formals:
                raise _err(f"class method {m.id!r} needs a receiver parameter", m.loc)
            if differs.get(m.id) is not None:
                raise _err(f"override {m.id!r} changes the signature of {differs[m.id]!r}", m.loc)

    def by_position(self, decls: Iterable[tuple[str, str, object]]) -> tuple[Table, list[tuple]]:
        """The `Table` of declarations `(name, class, x)`, and each `x` paired
        with the nearest declaration of its name in a proper superclass (or
        None), superclasses first. A class's superclasses are the classes
        whose intervals enclose its position."""
        by_name: dict[str, list[tuple[tuple[int, int], object]]] = {}
        for name, cls, x in decls:
            by_name.setdefault(name, []).append((self.sym.span[cls], x))
        table: Table = {}
        above: list[tuple] = []
        last = ((len(self.sym.span), 0), None)  # closes every interval
        for name, named in by_name.items():
            starts, found = table[name] = [0], [None]
            enclosing: list[tuple[int, object]] = []  # (end, x), innermost last
            for (lo, hi), x in [*sorted(named), last]:  # spans differ: no `x` is compared
                while enclosing and enclosing[-1][0] <= lo:
                    starts.append(enclosing.pop()[0])
                    found.append(enclosing[-1][1] if enclosing else None)
                if x is not None:
                    above.append((x, enclosing[-1][1] if enclosing else None))
                    starts.append(lo)
                    found.append(x)
                    enclosing.append((hi, x))
        return table, above

    # -- method bodies --------------------------------------------------------

    def check_method(self, m: ast.Method) -> None:
        names = [p.name for p in m.formals] + [p.name for p in m.locals]
        if len(names) != len(set(names)):
            raise _err(f"duplicate variable name in {m.id!r}", m.loc)
        for p in list(m.formals) + list(m.locals):
            self.check_type(p.type, m.loc)
        self.check_type(m.return_type, m.loc)
        if m.owner is not None and not self.sym.assignable(m.owner, m.formals[0].type):
            raise _err(
                f"receiver of {m.id!r} must accept {m.owner!r} instances", m.loc
            )
        env = {p.name: p.type for p in list(m.formals) + list(m.locals)}
        self.sym.var_types[m.id] = env
        if m.body is None:
            raise _err(f"method {m.id!r} has no body", m.loc)
        for s in ast.walk(m.body):
            self.check_stmt(m, s, env)
        if not self._always_returns(m.body):
            raise _err(f"method {m.id!r} must return on every path", m.loc)

    def _always_returns(self, stmts: ast.Block) -> bool:
        for i, s in enumerate(stmts):
            done = False
            if isinstance(s, ast.Return):
                done = True
            elif isinstance(s, ast.IfElse):
                then_ret = self._always_returns(s.then_body)
                else_ret = self._always_returns(s.else_body)
                done = then_ret and else_ret
            elif isinstance(s, ast.While):
                self._always_returns(s.body)  # for its unreachable statements only
            if done:
                if i + 1 < len(stmts):
                    raise _err("unreachable statement", stmts[i + 1].loc)
                return True
        return False

    def _var(self, env: dict[str, str], name: str, loc: ast.Loc) -> str:
        t = env.get(name)
        if t is None:
            raise _err(f"undeclared identifier {name!r}", loc)
        return t

    def _int_var(self, env: dict[str, str], name: str, loc: ast.Loc) -> None:
        if self._var(env, name, loc) != ast.INT:
            raise _err(f"{name!r} must be an int", loc)

    def check_stmt(self, m: ast.Method, s: ast.Stmt, env: dict[str, str]) -> None:
        sym = self.sym
        if isinstance(s, ast.ConstAssign):
            t = self._var(env, s.target, s.loc)
            if s.value is None:
                if t == ast.INT:
                    raise _err("null cannot be assigned to an int", s.loc)
            elif t != ast.INT:
                raise _err(f"integer constant assigned to {t!r}", s.loc)
            elif not ast.INT64_MIN <= s.value <= ast.INT64_MAX:
                raise _err(f"integer constant {s.value} is outside the 64-bit range", s.loc)
        elif isinstance(s, ast.CopyAssign):
            src = self._var(env, s.source, s.loc)
            dst = self._var(env, s.target, s.loc)
            if not sym.assignable(src, dst):
                raise _err(f"cannot assign {src!r} to {dst!r}", s.loc)
        elif isinstance(s, ast.UnaryAssign):
            self._int_var(env, s.operand, s.loc)
            self._int_var(env, s.target, s.loc)
            if s.op not in ast.UNARY_OPS:
                raise _err(f"unknown unary operator {s.op!r}", s.loc)
        elif isinstance(s, ast.BinaryAssign):
            self._int_var(env, s.left, s.loc)
            self._int_var(env, s.right, s.loc)
            self._int_var(env, s.target, s.loc)
            if s.op not in ast.BINARY_OPS:
                raise _err(f"unknown binary operator {s.op!r}", s.loc)
        elif isinstance(s, ast.FieldRead):
            self._check_field(env, s.obj, s.field_name, s.loc, into=s.target)
        elif isinstance(s, ast.FieldWrite):
            ftype = self._check_field(env, s.obj, s.field_name, s.loc)
            src = self._var(env, s.source, s.loc)
            if not sym.assignable(src, ftype):
                raise _err(f"cannot assign {src!r} to field of type {ftype!r}", s.loc)
        elif isinstance(s, ast.ArrayRead):
            elem = self._check_array(env, s.array, s.index, s.loc)
            dst = self._var(env, s.target, s.loc)
            if not sym.assignable(elem, dst):
                raise _err(f"cannot assign {elem!r} element to {dst!r}", s.loc)
        elif isinstance(s, ast.ArrayWrite):
            elem = self._check_array(env, s.array, s.index, s.loc)
            src = self._var(env, s.source, s.loc)
            if not sym.assignable(src, elem):
                raise _err(f"cannot store {src!r} into {elem!r} array", s.loc)
        elif isinstance(s, ast.Call):
            self._check_call(m, s, env)
        elif isinstance(s, ast.Return):
            src = self._var(env, s.value, s.loc)
            if not sym.assignable(src, m.return_type):
                raise _err(f"cannot return {src!r} as {m.return_type!r}", s.loc)
        elif isinstance(s, (ast.IfElse, ast.While)):
            cond = s.cond
            self._int_var(env, cond.left, s.loc)
            self._int_var(env, cond.right, s.loc)
            if cond.op not in ast.REL_OPS:
                raise _err(f"unknown relational operator {cond.op!r}", s.loc)
        elif isinstance(s, ast.BottomAssign):
            pass  # its targets are checked by `AliasAnalysis`
        else:
            raise _err(f"unknown statement {type(s).__name__}", getattr(s, "loc", ast.UNKNOWN_LOC))

    def _check_field(
        self, env: dict[str, str], obj: str, fname: str, loc: ast.Loc, into: str | None = None
    ) -> str:
        otype = self._var(env, obj, loc)
        if otype not in self.sym.classes:
            raise _err(f"{obj!r} has no fields (type {otype!r})", loc)
        found = self.sym.field(otype, fname)
        if found is None:
            raise _err(f"type {otype!r} has no field {fname!r}", loc)
        ftype = found[2]
        if into is not None:
            dst = self._var(env, into, loc)
            if not self.sym.assignable(ftype, dst):
                raise _err(f"cannot assign {ftype!r} to {dst!r}", loc)
        return ftype

    def _check_array(self, env: dict[str, str], arr: str, idx: str, loc: ast.Loc) -> str:
        atype = self._var(env, arr, loc)
        if not ast.is_array_type(atype):
            raise _err(f"{arr!r} is not an array", loc)
        self._int_var(env, idx, loc)
        return ast.elem_type(atype)

    def _check_call(self, m: ast.Method, s: ast.Call, env: dict[str, str]) -> None:
        decl = self.sym.call_signature(m, s)
        dst = self._var(env, s.target, s.loc)
        if len(decl.formals) != len(s.actuals):
            raise _err(
                f"{decl.id!r} expects {len(decl.formals)} arguments, got {len(s.actuals)}",
                s.loc,
            )
        for actual, formal in zip(s.actuals, decl.formals):
            atype = self._var(env, actual, s.loc)
            if not self.sym.assignable(atype, formal.type):
                raise _err(
                    f"argument {actual!r}: cannot pass {atype!r} as {formal.type!r}", s.loc
                )
        if not self.sym.assignable(decl.return_type, dst):
            raise _err(f"cannot assign result of {decl.id!r} to {dst!r}", s.loc)


def check(program: ast.Program, base: Symbols | None = None) -> Symbols:
    """The symbol table of a well-formed program; raises `CheckDiagnostic`.

    `base` holds the symbols of the program this one was rewritten from. The
    rewrite adds no variable and changes only bodies, trading loops and
    calls for bottom assignments, so this one takes `base`'s hierarchy
    record and every `var_types` entry and checks no method body."""
    return _Checker(program).run(base)
