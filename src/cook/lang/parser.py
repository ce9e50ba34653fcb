"""Recursive-descent parser for `.carib` compilation units.

A unit is a sequence of class, interface, and method declarations. Statement
blocks are brace-delimited; simple statements end with `;`. Local variables
are declared with `var name: type;` at the top of a method body.

The blocks of `if` and `while` nest at most `MAX_BLOCK_DEPTH` deep inside a
method body; deeper nesting is a `SyntaxDiagnostic`. Nesting is the only
axis along which any pass recurses, so the limit keeps every later stage
within the host stack.
"""

from __future__ import annotations

from ..errors import SyntaxDiagnostic
from ..representatives import ArrayPart, Representative, Scalar, TypeField
from . import ast
from .lexer import RESERVED, Token, tokenize

_CAUSES = {c.value: c for c in ast.DivergenceCause}

MAX_BLOCK_DEPTH = 128


class _Parser:
    def __init__(self, tokens: list[Token], allow_bottom: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_bottom = allow_bottom
        self.method_name = ""  # qualifies scalar representatives in bottom targets
        self.depth = 0  # if/while blocks open around the current statement

    # -- token plumbing ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise SyntaxDiagnostic(
                f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.col
            )
        return self.next()

    def fail(self, message: str) -> SyntaxDiagnostic:
        tok = self.peek()
        return SyntaxDiagnostic(message, tok.line, tok.col)

    def loc(self) -> ast.Loc:
        tok = self.peek()
        return ast.Loc(tok.line, tok.col)

    # -- names and types ---------------------------------------------------

    def ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected {what}, found {tok.text or tok.kind!r}")
        if tok.text in RESERVED:
            raise self.fail(f"{tok.text!r} is reserved")
        return self.next().text

    def type_name(self) -> str:
        if self.at("keyword"):
            raise self.fail("expected type")
        base = self.ident("type")
        if self.at("op", "[]"):
            self.next()
            return base + "[]"
        if self.at("op", "[") and self.peek(1).text == "]":
            self.next()
            self.next()
            return base + "[]"
        return base

    # -- declarations -------------------------------------------------------

    def unit(self) -> ast.Program:
        classes: list[ast.ClassDecl] = []
        interfaces: list[ast.InterfaceDecl] = []
        methods: list[ast.Method] = []
        while not self.at("eof"):
            if self.at("keyword", "class"):
                classes.append(self.class_decl())
            elif self.at("keyword", "interface"):
                interfaces.append(self.interface_decl())
            elif self.at("keyword", "method") or self.at("keyword", "extern"):
                methods.append(self.method_decl())
            else:
                raise self.fail("expected 'class', 'interface', or 'method'")
        return ast.Program(tuple(classes), tuple(interfaces), tuple(methods))

    def class_decl(self) -> ast.ClassDecl:
        loc = self.loc()
        self.expect("keyword", "class")
        name = self.ident("class name")
        superclass = None
        ifaces: list[str] = []
        if self.at("keyword", "extends"):
            self.next()
            superclass = self.ident("superclass name")
        if self.at("keyword", "implements"):
            self.next()
            ifaces.append(self.ident("interface name"))
            while self.at("op", ","):
                self.next()
                ifaces.append(self.ident("interface name"))
        self.expect("op", "{")
        fields: list[ast.FieldDecl] = []
        while not self.at("op", "}"):
            floc = self.loc()
            fname = self.ident("field name")
            self.expect("op", ":")
            ftype = self.type_name()
            self.expect("op", ";")
            fields.append(ast.FieldDecl(fname, ftype, loc=floc))
        self.expect("op", "}")
        return ast.ClassDecl(name, superclass, tuple(ifaces), tuple(fields), loc=loc)

    def interface_decl(self) -> ast.InterfaceDecl:
        loc = self.loc()
        self.expect("keyword", "interface")
        name = self.ident("interface name")
        extends: list[str] = []
        if self.at("keyword", "extends"):
            self.next()
            extends.append(self.ident("interface name"))
            while self.at("op", ","):
                self.next()
                extends.append(self.ident("interface name"))
        self.expect("op", "{")
        self.expect("op", "}")
        return ast.InterfaceDecl(name, tuple(extends), loc=loc)

    def method_decl(self) -> ast.Method:
        loc = self.loc()
        extern = False
        if self.at("keyword", "extern"):
            self.next()
            extern = True
        self.expect("keyword", "method")
        owner = None
        name = self.ident("method name")
        if self.at("op", "."):
            self.next()
            owner = name
            name = self.ident("method name")
        self.method_name = f"{owner}.{name}" if owner else name
        self.expect("op", "(")
        formals: list[ast.Param] = []
        if not self.at("op", ")"):
            formals.append(self.param())
            while self.at("op", ","):
                self.next()
                formals.append(self.param())
        self.expect("op", ")")
        rtype = ast.INT
        if self.at("op", ":"):
            self.next()
            rtype = self.type_name()
        if extern:
            self.expect("op", ";")
            return ast.Method(name, owner, tuple(formals), (), rtype, None, extern=True, loc=loc)
        self.expect("op", "{")
        locals_: list[ast.Param] = []
        while self.at("keyword", "var"):
            self.next()
            lname = self.ident("local name")
            self.expect("op", ":")
            ltype = self.type_name()
            self.expect("op", ";")
            locals_.append(ast.Param(lname, ltype))
        body = self.block_tail()
        return ast.Method(name, owner, tuple(formals), tuple(locals_), rtype, body, loc=loc)

    def param(self) -> ast.Param:
        name = self.ident("parameter name")
        self.expect("op", ":")
        return ast.Param(name, self.type_name())

    # -- statements -----------------------------------------------------------

    def block(self) -> ast.Block:
        tok = self.expect("op", "{")
        if self.depth == MAX_BLOCK_DEPTH:
            raise SyntaxDiagnostic(
                f"blocks nested more than {MAX_BLOCK_DEPTH} deep", tok.line, tok.col
            )
        self.depth += 1
        body = self.block_tail()
        self.depth -= 1
        return body

    def block_tail(self) -> ast.Block:
        stmts: list[ast.Stmt] = []
        while not self.at("op", "}"):
            stmts.append(self.statement())
        self.expect("op", "}")
        return tuple(stmts)

    def statement(self) -> ast.Stmt:
        loc = self.loc()
        if self.at("keyword", "if"):
            return self.if_stmt(loc)
        if self.at("keyword", "while"):
            return self.while_stmt(loc)
        if self.at("keyword", "return"):
            self.next()
            value = self.ident("identifier")
            self.expect("op", ";")
            return ast.Return(value, loc=loc)
        if self.at("keyword", "bottom") or self.at("partref"):
            return self.bottom_stmt(loc)
        if self.at("ident"):
            # Could still be a bottom statement: `x, A.f := bottom(...)` or a
            # foreign-scalar target `m::x := bottom(...)`.
            if self.allow_bottom and self._looks_like_bottom():
                return self.bottom_stmt(loc)
            return self.assign_or_call(loc)
        raise self.fail("expected statement")

    def _looks_like_bottom(self) -> bool:
        i = 0
        depth_guard = 0
        while depth_guard < 256:
            depth_guard += 1
            tok = self.peek(i)
            if tok.kind in ("partref",):
                i += 1
            elif tok.kind == "ident":
                i += 1
                if self.peek(i).text in ("::", "."):
                    i += 2
            else:
                return False
            nxt = self.peek(i)
            if nxt.text == ",":
                i += 1
                continue
            if nxt.text == ":=":
                return self.peek(i + 1).text == "bottom"
            return False
        return False

    def if_stmt(self, loc: ast.Loc) -> ast.Stmt:
        self.expect("keyword", "if")
        cond = self.cond()
        self.expect("keyword", "then")
        then_body = self.block()
        else_body = ()
        if self.at("keyword", "else"):
            self.next()
            else_body = self.block()
        return ast.IfElse(cond, then_body, else_body, loc=loc)

    def while_stmt(self, loc: ast.Loc) -> ast.Stmt:
        self.expect("keyword", "while")
        cond = self.cond()
        self.expect("keyword", "do")
        body = self.block()
        return ast.While(cond, body, loc=loc)

    def cond(self) -> ast.Cond:
        left = self.ident("identifier")
        tok = self.peek()
        if tok.text not in ast.REL_OPS:
            raise self.fail("expected relational operator")
        self.next()
        right = self.ident("identifier")
        return ast.Cond(left, tok.text, right)

    def bottom_stmt(self, loc: ast.Loc) -> ast.Stmt:
        if not self.allow_bottom:
            raise self.fail("'bottom' is not allowed in source programs")
        targets: list[Representative] = []
        if not self.at("keyword", "bottom"):
            targets.append(self.bottom_target())
            while self.at("op", ","):
                self.next()
                targets.append(self.bottom_target())
            self.expect("op", ":=")
        self.expect("keyword", "bottom")
        self.expect("op", "(")
        tok = self.expect("ident")
        cause = _CAUSES.get(tok.text)
        if cause is None:
            raise SyntaxDiagnostic(
                f"expected divergence cause, found {tok.text!r}", tok.line, tok.col
            )
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.BottomAssign(tuple(targets), cause, loc=loc)

    def _rep_name(self, what: str) -> str:
        # `ret` names the return slot and is legal inside bottom targets
        if self.at("ident", "ret"):
            return self.next().text
        return self.ident(what)

    def bottom_target(self) -> Representative:
        if self.at("partref"):
            return ArrayPart(int(self.next().text.split("#")[1]))
        name = self._rep_name("representative")
        if self.at("op", "::"):
            self.next()
            return Scalar(name, self._rep_name("identifier"))
        if self.at("op", "."):
            self.next()
            return TypeField(name, self.ident("field name"))
        return Scalar(self.method_name, name)

    def assign_or_call(self, loc: ast.Loc) -> ast.Stmt:
        first = self.ident("identifier")
        if self.at("op", "."):  # o.f := x
            self.next()
            fname = self.ident("field name")
            self.expect("op", ":=")
            source = self.ident("identifier")
            self.expect("op", ";")
            return ast.FieldWrite(first, fname, source, loc=loc)
        if self.at("op", "["):  # a[i] := x
            self.next()
            index = self.ident("identifier")
            self.expect("op", "]")
            self.expect("op", ":=")
            source = self.ident("identifier")
            self.expect("op", ";")
            return ast.ArrayWrite(first, index, source, loc=loc)
        self.expect("op", ":=")
        return self.assign_rhs(first, loc)

    def assign_rhs(self, target: str, loc: ast.Loc) -> ast.Stmt:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            self.expect("op", ";")
            return ast.ConstAssign(target, int(tok.text), loc=loc)
        if tok.text == "-" and self.peek(1).kind == "int":
            self.next()
            value = -int(self.next().text)
            self.expect("op", ";")
            return ast.ConstAssign(target, value, loc=loc)
        if self.at("keyword", "null"):
            self.next()
            self.expect("op", ";")
            return ast.ConstAssign(target, None, loc=loc)
        if tok.text in ast.UNARY_OPS:
            self.next()
            operand = self.ident("identifier")
            self.expect("op", ";")
            return ast.UnaryAssign(target, tok.text, operand, loc=loc)
        first = self.ident("identifier")
        if self.at("op", "("):  # call
            self.next()
            actuals: list[str] = []
            if not self.at("op", ")"):
                actuals.append(self.ident("identifier"))
                while self.at("op", ","):
                    self.next()
                    actuals.append(self.ident("identifier"))
            self.expect("op", ")")
            self.expect("op", ";")
            return ast.Call(target, first, tuple(actuals), loc=loc)
        if self.at("op", "."):  # x := o.f
            self.next()
            fname = self.ident("field name")
            self.expect("op", ";")
            return ast.FieldRead(target, first, fname, loc=loc)
        if self.at("op", "["):  # x := a[i]
            self.next()
            index = self.ident("identifier")
            self.expect("op", "]")
            self.expect("op", ";")
            return ast.ArrayRead(target, first, index, loc=loc)
        if self.peek().text in ast.BINARY_OPS:
            op = self.next().text
            right = self.ident("identifier")
            self.expect("op", ";")
            return ast.BinaryAssign(target, first, op, right, loc=loc)
        self.expect("op", ";")
        return ast.CopyAssign(target, first, loc=loc)


def parse_unit(source: str, allow_bottom: bool = False) -> ast.Program:
    """Syntax-only parse; use `lang.parse` for the checked front door."""
    parser = _Parser(tokenize(source), allow_bottom)
    return parser.unit()
