"""Class-hierarchy queries as `cook.lang.check.Symbols` answered them before
`check` recorded the hierarchy, kept as the reference for
`tests/test_callgraph.py`. Each query walks the class chain or the interface
graph afresh: a class's chain up to its root, and an interface's
subinterfaces by a search over every interface's `extends`.
"""

from __future__ import annotations

from cook.lang import ast
from cook.lang.check import Symbols


def ancestors(sym: Symbols, cname: str) -> list[str]:
    """Class chain from `cname` up to the root, inclusive."""
    chain = []
    cur: str | None = cname
    while cur is not None:
        chain.append(cur)
        cur = sym.classes[cur].superclass
    return chain


def declaring_class(sym: Symbols, cname: str, fname: str) -> str | None:
    """Highest class in `cname`'s chain declaring field `fname`."""
    found = None
    for c in ancestors(sym, cname):
        if any(f.name == fname for f in sym.classes[c].fields):
            found = c
    return found


def all_fields(sym: Symbols, cname: str) -> list[tuple[str, str, str]]:
    """(declaring class per ownership rule, field name, type) for the chain."""
    out = []
    seen = set()
    for c in ancestors(sym, cname):
        for f in sym.classes[c].fields:
            if f.name not in seen:
                seen.add(f.name)
                out.append((declaring_class(sym, cname, f.name) or c, f.name, f.type))
    return out


def lookup_method(sym: Symbols, cname: str, mname: str) -> ast.Method | None:
    """Nearest declaration of `mname` walking up from `cname`."""
    for c in ancestors(sym, cname):
        m = sym.methods.get(f"{c}.{mname}")
        if m is not None:
            return m
    return None


def subinterfaces(sym: Symbols, iname: str) -> set[str]:
    """Reflexive transitive closure over interface extension."""
    out = {iname}
    work = [iname]
    while work:
        cur = work.pop()
        for child in sym.interfaces:
            if cur in sym.interfaces[child].extends and child not in out:
                out.add(child)
                work.append(child)
    return out


def implemented(sym: Symbols, cname: str) -> set[str]:
    """The interfaces class `cname` itself implements, and every interface
    they extend."""
    out: set[str] = set()
    for iname in sym.classes[cname].interfaces:
        for sup in sym.interfaces:
            if iname in subinterfaces(sym, sup):
                out.add(sup)
        out.add(iname)
    return out


def runtime_types(sym: Symbols, declared: str) -> set[str]:
    """All classes a reference of the declared type may hold at runtime: a
    class's subclasses, or for an interface the subclasses of every class
    implementing it or one of its subinterfaces."""
    if declared in sym.classes:
        return {c for c in sym.classes if declared in ancestors(sym, c)}
    subs = subinterfaces(sym, declared)
    return {
        c
        for c in sym.classes
        if any(set(sym.classes[a].interfaces) & subs for a in ancestors(sym, c))
    }


def resolve_call(sym: Symbols, caller: ast.Method, call: ast.Call) -> list[ast.Method]:
    """Possible targets of a call site, one per distinct method in the order
    of their runtime classes' names."""
    decl = sym.call_signature(caller, call)
    if decl.owner is None:
        return [decl]
    rtype = sym.var_types[caller.id][call.actuals[0]]
    targets = []
    seen = set()
    for cls in sorted(runtime_types(sym, rtype)):
        m = lookup_method(sym, cls, call.callee)
        if m is not None and m.id not in seen:
            seen.add(m.id)
            targets.append(m)
    return targets


def assignable(sym: Symbols, src: str, dst: str) -> bool:
    if src == dst:
        return True
    if ast.is_array_type(src) or ast.is_array_type(dst):
        return False  # arrays are invariant
    if src in sym.classes:
        if dst in sym.classes:
            return dst in ancestors(sym, src)
        if dst in sym.interfaces:
            want = subinterfaces(sym, dst)
            return any(i in want for c in ancestors(sym, src) for i in implemented(sym, c))
    if src in sym.interfaces and dst in sym.interfaces:
        return src in subinterfaces(sym, dst)
    return False
