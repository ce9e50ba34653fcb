"""Static well-formedness checking and the symbol table.

`check` enforces everything the later passes rely on: unique names, acyclic
inheritance, declared types, declared identifiers, per-form typing, mandatory
returns on every path (so the return slot is always bound), and no unreachable
statements. It returns a `Symbols` table used by every downstream pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..errors import CheckDiagnostic
from ..representatives import ArrayPart, Scalar, TypeField
from . import ast


@dataclass
class Symbols:
    program: ast.Program
    classes: dict[str, ast.ClassDecl] = dc_field(default_factory=dict)
    interfaces: dict[str, ast.InterfaceDecl] = dc_field(default_factory=dict)
    methods: dict[str, ast.Method] = dc_field(default_factory=dict)
    free_methods: dict[str, ast.Method] = dc_field(default_factory=dict)
    class_method_names: set[str] = dc_field(default_factory=set)
    var_types: dict[str, dict[str, str]] = dc_field(default_factory=dict)
    subclasses: dict[str, set[str]] = dc_field(default_factory=dict)  # reflexive
    iface_children: dict[str, set[str]] = dc_field(default_factory=dict)
    direct_impls: dict[str, set[str]] = dc_field(default_factory=dict)

    # -- hierarchy -----------------------------------------------------------

    def ancestors(self, cname: str) -> list[str]:
        """Class chain from `cname` up to the root, inclusive."""
        chain = []
        cur: str | None = cname
        while cur is not None:
            chain.append(cur)
            cur = self.classes[cur].superclass
        return chain

    def declaring_class(self, cname: str, fname: str) -> str | None:
        """Highest class in `cname`'s chain declaring field `fname`."""
        found = None
        for c in self.ancestors(cname):
            if any(f.name == fname for f in self.classes[c].fields):
                found = c
        return found

    def field_type(self, cname: str, fname: str) -> str | None:
        for c in self.ancestors(cname):
            for f in self.classes[c].fields:
                if f.name == fname:
                    return f.type
        return None

    def all_fields(self, cname: str) -> list[tuple[str, str, str]]:
        """(declaring class per ownership rule, field name, type) for the chain."""
        out = []
        seen = set()
        for c in self.ancestors(cname):
            for f in self.classes[c].fields:
                if f.name not in seen:
                    seen.add(f.name)
                    out.append((self.declaring_class(cname, f.name) or c, f.name, f.type))
        return out

    def subinterfaces(self, iname: str) -> set[str]:
        """Reflexive transitive closure over interface extension."""
        out = {iname}
        work = [iname]
        while work:
            cur = work.pop()
            for child in self.iface_children.get(cur, ()):
                if child not in out:
                    out.add(child)
                    work.append(child)
        return out

    def runtime_types(self, declared: str) -> set[str]:
        """All classes a reference of the declared type may hold at runtime."""
        if declared in self.classes:
            return set(self.subclasses[declared])
        if declared in self.interfaces:
            out: set[str] = set()
            for sub in self.subinterfaces(declared):
                for impl in self.direct_impls.get(sub, ()):
                    out |= self.subclasses[impl]
            return out
        raise CheckDiagnostic(f"unknown type {declared!r}")

    def lookup_method(self, cname: str, mname: str) -> ast.Method | None:
        """Nearest declaration of `mname` walking up from `cname`."""
        for c in self.ancestors(cname):
            m = self.methods.get(f"{c}.{mname}")
            if m is not None:
                return m
        return None

    def call_signature(self, caller: ast.Method, call: ast.Call) -> ast.Method:
        """The declaration a call site is typed against: for virtual calls the
        nearest declaration on the receiver's static type, else the free method."""
        if call.callee in self.class_method_names:
            if not call.actuals:
                raise CheckDiagnostic(
                    f"virtual call to {call.callee!r} needs a receiver argument",
                    call.loc.line,
                    call.loc.col,
                )
            rtype = self.var_types[caller.id].get(call.actuals[0])
            if rtype is None or rtype not in self.classes:
                raise CheckDiagnostic(
                    f"receiver of {call.callee!r} must be a class instance",
                    call.loc.line,
                    call.loc.col,
                )
            decl = self.lookup_method(rtype, call.callee)
            if decl is None:
                raise CheckDiagnostic(
                    f"no method {call.callee!r} on type {rtype!r}", call.loc.line, call.loc.col
                )
            return decl
        m = self.free_methods.get(call.callee)
        if m is None:
            raise CheckDiagnostic(
                f"call to undeclared method {call.callee!r}", call.loc.line, call.loc.col
            )
        return m

    def resolve_call(self, caller: ast.Method, call: ast.Call) -> list[ast.Method]:
        """Possible targets of a call site (overrides included for virtual calls)."""
        decl = self.call_signature(caller, call)
        if decl.owner is None:
            return [decl]
        rtype = self.var_types[caller.id][call.actuals[0]]
        targets = []
        seen = set()
        for cls in sorted(self.runtime_types(rtype)):
            m = self.lookup_method(cls, call.callee)
            if m is not None and m.id not in seen:
                seen.add(m.id)
                targets.append(m)
        return targets

    def assignable(self, src: str, dst: str) -> bool:
        if src == dst:
            return True
        if ast.is_array_type(src) or ast.is_array_type(dst):
            return False  # arrays are invariant
        if src in self.classes:
            if dst in self.classes:
                return dst in self.ancestors(src)
            if dst in self.interfaces:
                want = self.subinterfaces(dst)
                return any(
                    i in want
                    for c in self.ancestors(src)
                    for i in self._implemented(c)
                )
        if src in self.interfaces and dst in self.interfaces:
            return src in self.subinterfaces(dst)
        return False

    def _implemented(self, cname: str) -> set[str]:
        out: set[str] = set()
        for iname in self.classes[cname].interfaces:
            for sup in self.interfaces:
                if iname in self.subinterfaces(sup):
                    out.add(sup)
            out.add(iname)
        return out


def _err(msg: str, loc: ast.Loc) -> CheckDiagnostic:
    return CheckDiagnostic(msg, loc.line, loc.col)


class _Checker:
    def __init__(self, program: ast.Program, allow_bottom: bool):
        self.p = program
        self.allow_bottom = allow_bottom
        self.sym = Symbols(program)

    def run(self) -> Symbols:
        self.declare()
        self.check_hierarchy()
        self.build_closures()
        for m in self.p.methods:
            if not m.extern:
                self.check_method(m)
        return self.sym

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
            if cls.superclass is not None:
                if cls.superclass not in sym.classes:
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
        # extends must be acyclic for classes and interfaces alike
        for cls in self.p.classes:
            seen = set()
            cur: str | None = cls.name
            while cur is not None:
                if cur in seen:
                    raise _err(f"inheritance cycle through {cls.name!r}", cls.loc)
                seen.add(cur)
                cur = sym.classes[cur].superclass
        for iface in self.p.interfaces:
            seen = set()
            work = [iface.name]
            while work:
                cur = work.pop()
                if cur in seen:
                    raise _err(f"interface cycle through {iface.name!r}", iface.loc)
                seen.add(cur)
                work.extend(sym.interfaces[cur].extends)
        # no field shadowing along a chain
        for cls in self.p.classes:
            chain_fields: list[str] = []
            for c in self.sym.ancestors(cls.name):
                chain_fields.extend(f.name for f in sym.classes[c].fields)
            if len(chain_fields) != len(set(chain_fields)):
                raise _err(f"field shadowing in hierarchy of {cls.name!r}", cls.loc)
        # class methods take their receiver first; overrides must preserve the
        # rest of the signature (the receiver formal narrows naturally)
        for m in self.p.methods:
            if m.owner is None:
                continue
            if not m.formals:
                raise _err(f"class method {m.id!r} needs a receiver parameter", m.loc)
            sup = sym.classes[m.owner].superclass
            while sup is not None:
                other = sym.methods.get(f"{sup}.{m.name}")
                if other is not None:
                    same = (
                        tuple(p.type for p in other.formals[1:])
                        == tuple(p.type for p in m.formals[1:])
                        and other.return_type == m.return_type
                    )
                    if not same:
                        raise _err(
                            f"override {m.id!r} changes the signature of {other.id!r}", m.loc
                        )
                sup = sym.classes[sup].superclass

    def build_closures(self) -> None:
        sym = self.sym
        for name in sym.classes:
            sym.subclasses[name] = {name}
        for cls in self.p.classes:
            for anc in sym.ancestors(cls.name):
                sym.subclasses[anc].add(cls.name)
        for iface in self.p.interfaces:
            for sup in iface.extends:
                sym.iface_children.setdefault(sup, set()).add(iface.name)
        for cls in self.p.classes:
            for iname in cls.interfaces:
                sym.direct_impls.setdefault(iname, set()).add(cls.name)

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
        if not self._always_returns(m.body, check_dead=True):
            raise _err(f"method {m.id!r} must return on every path", m.loc)

    def _always_returns(self, stmts: ast.Block, check_dead: bool = False) -> bool:
        for i, s in enumerate(stmts):
            done = False
            if isinstance(s, ast.Return):
                done = True
            elif isinstance(s, ast.IfElse):
                then_ret = self._always_returns(s.then_body, check_dead)
                else_ret = self._always_returns(s.else_body, check_dead)
                done = then_ret and else_ret
            elif isinstance(s, ast.While) and check_dead:
                self._always_returns(s.body, check_dead)
            if done:
                if check_dead and i + 1 < len(stmts):
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
            if not self.allow_bottom:
                raise _err("bottom assignment in source program", s.loc)
            self._check_bottom(m, s)
        else:
            raise _err(f"unknown statement {type(s).__name__}", getattr(s, "loc", ast.UNKNOWN_LOC))

    def _check_field(
        self, env: dict[str, str], obj: str, fname: str, loc: ast.Loc, into: str | None = None
    ) -> str:
        otype = self._var(env, obj, loc)
        if otype not in self.sym.classes:
            raise _err(f"{obj!r} has no fields (type {otype!r})", loc)
        ftype = self.sym.field_type(otype, fname)
        if ftype is None:
            raise _err(f"type {otype!r} has no field {fname!r}", loc)
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

    def _check_bottom(self, m: ast.Method, s: ast.BottomAssign) -> None:
        for rep in s.targets:
            if isinstance(rep, Scalar):
                if rep.method == m.id:
                    if rep.name != "ret" and rep.name not in self.sym.var_types[m.id]:
                        raise _err(f"unknown identifier {rep.name!r}", s.loc)
                elif rep.method not in self.sym.methods:
                    raise _err(f"unknown method {rep.method!r} in bottom target", s.loc)
            elif isinstance(rep, TypeField):
                if rep.type_name not in self.sym.classes:
                    raise _err(f"unknown class {rep.type_name!r} in bottom target", s.loc)
                if self.sym.field_type(rep.type_name, rep.field_name) is None:
                    raise _err(
                        f"class {rep.type_name!r} has no field {rep.field_name!r}", s.loc
                    )
            elif isinstance(rep, ArrayPart):
                if rep.part < 0:
                    raise _err("negative array partition", s.loc)


def check(program: ast.Program, allow_bottom: bool = False) -> Symbols:
    return _Checker(program, allow_bottom).run()
