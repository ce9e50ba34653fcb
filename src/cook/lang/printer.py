"""Canonical pretty-printer; `parse(pretty(p))` is the identity on ASTs."""

from __future__ import annotations

from ..representatives import Representative, Scalar
from . import ast

_INDENT = "  "


def _render_target(rep: Representative, method_id: str) -> str:
    if isinstance(rep, Scalar) and rep.method == method_id:
        return rep.name
    return rep.render()


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0
        self.method_id = ""

    def emit(self, text: str) -> None:
        self.lines.append(_INDENT * self.depth + text)

    def program(self, p: ast.Program) -> str:
        for iface in p.interfaces:
            ext = f" extends {', '.join(iface.extends)}" if iface.extends else ""
            self.emit(f"interface {iface.name}{ext} {{}}")
            self.emit("")
        for cls in p.classes:
            head = f"class {cls.name}"
            if cls.superclass:
                head += f" extends {cls.superclass}"
            if cls.interfaces:
                head += f" implements {', '.join(cls.interfaces)}"
            if cls.fields:
                self.emit(head + " {")
                self.depth += 1
                for f in cls.fields:
                    self.emit(f"{f.name}: {f.type};")
                self.depth -= 1
                self.emit("}")
            else:
                self.emit(head + " {}")
            self.emit("")
        for m in p.methods:
            self.method(m)
            self.emit("")
        while self.lines and not self.lines[-1]:
            self.lines.pop()
        return "\n".join(self.lines) + "\n" if self.lines else ""

    def method(self, m: ast.Method) -> None:
        self.method_id = m.id
        params = ", ".join(f"{p.name}: {p.type}" for p in m.formals)
        name = f"{m.owner}.{m.name}" if m.owner else m.name
        head = f"method {name}({params}): {m.return_type}"
        if m.extern:
            self.emit(f"extern {head};")
            return
        self.emit(head + " {")
        self.depth += 1
        for p in m.locals:
            self.emit(f"var {p.name}: {p.type};")
        self.body(m.body)
        self.depth -= 1
        self.emit("}")

    def body(self, block: ast.Block) -> None:
        for s in block:
            self.statement(s)

    def statement(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.ConstAssign):
            value = "null" if s.value is None else str(s.value)
            self.emit(f"{s.target} := {value};")
        elif isinstance(s, ast.CopyAssign):
            self.emit(f"{s.target} := {s.source};")
        elif isinstance(s, ast.UnaryAssign):
            self.emit(f"{s.target} := {s.op} {s.operand};")
        elif isinstance(s, ast.BinaryAssign):
            self.emit(f"{s.target} := {s.left} {s.op} {s.right};")
        elif isinstance(s, ast.FieldRead):
            self.emit(f"{s.target} := {s.obj}.{s.field_name};")
        elif isinstance(s, ast.FieldWrite):
            self.emit(f"{s.obj}.{s.field_name} := {s.source};")
        elif isinstance(s, ast.ArrayRead):
            self.emit(f"{s.target} := {s.array}[{s.index}];")
        elif isinstance(s, ast.ArrayWrite):
            self.emit(f"{s.array}[{s.index}] := {s.source};")
        elif isinstance(s, ast.Call):
            self.emit(f"{s.target} := {s.callee}({', '.join(s.actuals)});")
        elif isinstance(s, ast.Return):
            self.emit(f"return {s.value};")
        elif isinstance(s, ast.IfElse):
            self.emit(f"if {s.cond.render()} then {{")
            self.depth += 1
            self.body(s.then_body)
            self.depth -= 1
            if s.else_body:
                self.emit("} else {")
                self.depth += 1
                self.body(s.else_body)
                self.depth -= 1
            self.emit("}")
        elif isinstance(s, ast.While):
            self.emit(f"while {s.cond.render()} do {{")
            self.depth += 1
            self.body(s.body)
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, ast.BottomAssign):
            if s.targets:
                targets = ", ".join(_render_target(t, self.method_id) for t in s.targets)
                self.emit(f"{targets} := bottom({s.cause.value});")
            else:
                self.emit(f"bottom({s.cause.value});")
        else:
            raise TypeError(f"cannot print {type(s).__name__}")


def pretty(p: ast.Program) -> str:
    return _Printer().program(p)
