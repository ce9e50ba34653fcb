"""Recursive-descent parser for `.carib` compilation units.

A unit is a sequence of class, interface, and method declarations. Statement
blocks are brace-delimited; simple statements end with `;`. Local variables
are declared with `var name: type;` at the top of a method body.

The blocks of `if` and `while` nest at most `MAX_BLOCK_DEPTH` deep inside a
method body; deeper nesting is a `SyntaxDiagnostic`. Nesting is the only
axis along which any pass recurses, so the limit keeps every later stage
within the host stack.

The parser reads the lexer's `(kind, text, line, col)` tuples by index. The
token list is padded with copies of its `eof` token, so `peek(ahead)` needs
no bounds check, and a parse that runs into the end of input still sees
`eof`, which every grammar rule rejects with a `SyntaxDiagnostic`.
"""

from __future__ import annotations

from ..errors import SyntaxDiagnostic
from ..representatives import ArrayPart, Representative, Scalar, TypeField
from . import ast
from .lexer import RESERVED, Token, tokenize

_CAUSES = {c.value: c for c in ast.DivergenceCause}

MAX_BLOCK_DEPTH = 128

# `eof` copies after the lexer's own: the grammar looks at most one token
# past `eof` (`_looks_like_bottom` steps over the name after `::` unread),
# and one more copy is margin.
_EOF_PAD = 2


class _Parser:
    def __init__(self, tokens: list[Token], allow_bottom: bool, file: str):
        self.tokens = tokens + [tokens[-1]] * _EOF_PAD
        self.file = file  # recorded in every Loc, so check errors can name it
        self.pos = 0
        self.allow_bottom = allow_bottom
        self.method_name = ""  # qualifies scalar representatives in bottom targets
        self.depth = 0  # if/while blocks open around the current statement

    # -- token plumbing ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def at(self, text: str) -> bool:
        # a token's text determines its kind, so the text alone is compared
        return self.tokens[self.pos][1] == text

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[1] != text:
            raise self.fail(f"expected {text!r}, found {tok[1] or tok[0]!r}")
        self.pos += 1
        return tok

    def fail(self, message: str) -> SyntaxDiagnostic:
        tok = self.tokens[self.pos]
        return SyntaxDiagnostic(message, tok[2], tok[3])

    def loc(self) -> ast.Loc:
        tok = self.tokens[self.pos]
        return ast.Loc(tok[2], tok[3], self.file)

    # -- names and types ---------------------------------------------------

    def ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if tok[0] != "ident":
            raise self.fail(f"expected {what}, found {tok[1] or tok[0]!r}")
        if tok[1] in RESERVED:
            raise self.fail(f"{tok[1]!r} is reserved")
        self.pos += 1
        return tok[1]

    def type_name(self) -> str:
        if self.kind() == "keyword":
            raise self.fail("expected type")
        base = self.ident("type")
        if self.at("[]"):
            self.next()
            return base + "[]"
        if self.at("[") and self.peek(1)[1] == "]":
            self.next()
            self.next()
            return base + "[]"
        return base

    # -- declarations -------------------------------------------------------

    def unit(self) -> ast.Program:
        classes: list[ast.ClassDecl] = []
        interfaces: list[ast.InterfaceDecl] = []
        methods: list[ast.Method] = []
        while self.kind() != "eof":
            if self.at("class"):
                classes.append(self.class_decl())
            elif self.at("interface"):
                interfaces.append(self.interface_decl())
            elif self.at("method") or self.at("extern"):
                methods.append(self.method_decl())
            else:
                raise self.fail("expected 'class', 'interface', or 'method'")
        return ast.Program(tuple(classes), tuple(interfaces), tuple(methods))

    def class_decl(self) -> ast.ClassDecl:
        loc = self.loc()
        self.expect("class")
        name = self.ident("class name")
        superclass = None
        ifaces: list[str] = []
        if self.at("extends"):
            self.next()
            superclass = self.ident("superclass name")
        if self.at("implements"):
            self.next()
            ifaces.append(self.ident("interface name"))
            while self.at(","):
                self.next()
                ifaces.append(self.ident("interface name"))
        self.expect("{")
        fields: list[ast.FieldDecl] = []
        while not self.at("}"):
            floc = self.loc()
            fname = self.ident("field name")
            self.expect(":")
            ftype = self.type_name()
            self.expect(";")
            fields.append(ast.FieldDecl(fname, ftype, loc=floc))
        self.expect("}")
        return ast.ClassDecl(name, superclass, tuple(ifaces), tuple(fields), loc=loc)

    def interface_decl(self) -> ast.InterfaceDecl:
        loc = self.loc()
        self.expect("interface")
        name = self.ident("interface name")
        extends: list[str] = []
        if self.at("extends"):
            self.next()
            extends.append(self.ident("interface name"))
            while self.at(","):
                self.next()
                extends.append(self.ident("interface name"))
        self.expect("{")
        self.expect("}")
        return ast.InterfaceDecl(name, tuple(extends), loc=loc)

    def method_decl(self) -> ast.Method:
        loc = self.loc()
        extern = False
        if self.at("extern"):
            self.next()
            extern = True
        self.expect("method")
        owner = None
        name = self.ident("method name")
        if self.at("."):
            self.next()
            owner = name
            name = self.ident("method name")
        self.method_name = f"{owner}.{name}" if owner else name
        self.expect("(")
        formals: list[ast.Param] = []
        if not self.at(")"):
            formals.append(self.param())
            while self.at(","):
                self.next()
                formals.append(self.param())
        self.expect(")")
        rtype = ast.INT
        if self.at(":"):
            self.next()
            rtype = self.type_name()
        if extern:
            self.expect(";")
            return ast.Method(name, owner, tuple(formals), (), rtype, None, extern=True, loc=loc)
        self.expect("{")
        locals_: list[ast.Param] = []
        while self.at("var"):
            self.next()
            lname = self.ident("local name")
            self.expect(":")
            ltype = self.type_name()
            self.expect(";")
            locals_.append(ast.Param(lname, ltype))
        body = self.block_tail()
        return ast.Method(name, owner, tuple(formals), tuple(locals_), rtype, body, loc=loc)

    def param(self) -> ast.Param:
        name = self.ident("parameter name")
        self.expect(":")
        return ast.Param(name, self.type_name())

    # -- statements -----------------------------------------------------------

    def block(self) -> ast.Block:
        tok = self.expect("{")
        if self.depth == MAX_BLOCK_DEPTH:
            raise SyntaxDiagnostic(
                f"blocks nested more than {MAX_BLOCK_DEPTH} deep", tok[2], tok[3]
            )
        self.depth += 1
        body = self.block_tail()
        self.depth -= 1
        return body

    def block_tail(self) -> ast.Block:
        stmts: list[ast.Stmt] = []
        while not self.at("}"):
            stmts.append(self.statement())
        self.expect("}")
        return tuple(stmts)

    def statement(self) -> ast.Stmt:
        kind, text, line, col = self.tokens[self.pos]
        loc = ast.Loc(line, col, self.file)
        if text == "if":
            return self.if_stmt(loc)
        if text == "while":
            return self.while_stmt(loc)
        if text == "return":
            self.next()
            value = self.ident("identifier")
            self.expect(";")
            return ast.Return(value, loc=loc)
        if text == "bottom" or kind == "partref":
            return self.bottom_stmt(loc)
        if kind == "ident":
            # Could still be a bottom statement: `x, A.f := bottom(...)` or a
            # foreign-scalar target `m::x := bottom(...)`.
            if self.allow_bottom and self._looks_like_bottom():
                return self.bottom_stmt(loc)
            return self.assign_or_call(loc)
        raise self.fail("expected statement")

    def _looks_like_bottom(self) -> bool:
        i = 0
        while True:
            tok = self.peek(i)
            if tok[0] == "partref":
                i += 1
            elif tok[0] == "ident":
                i += 1
                if self.peek(i)[1] in ("::", "."):
                    i += 2
            else:
                return False
            nxt = self.peek(i)
            if nxt[1] == ",":
                i += 1
                continue
            if nxt[1] == ":=":
                return self.peek(i + 1)[1] == "bottom"
            return False

    def if_stmt(self, loc: ast.Loc) -> ast.Stmt:
        self.expect("if")
        cond = self.cond()
        self.expect("then")
        then_body = self.block()
        else_body = ()
        if self.at("else"):
            self.next()
            else_body = self.block()
        return ast.IfElse(cond, then_body, else_body, loc=loc)

    def while_stmt(self, loc: ast.Loc) -> ast.Stmt:
        self.expect("while")
        cond = self.cond()
        self.expect("do")
        body = self.block()
        return ast.While(cond, body, loc=loc)

    def cond(self) -> ast.Cond:
        left = self.ident("identifier")
        tok = self.peek()
        if tok[1] not in ast.REL_OPS:
            raise self.fail("expected relational operator")
        self.next()
        right = self.ident("identifier")
        return ast.Cond(left, tok[1], right)

    def bottom_stmt(self, loc: ast.Loc) -> ast.Stmt:
        if not self.allow_bottom:
            raise self.fail("'bottom' is not allowed in source programs")
        targets: list[Representative] = []
        if not self.at("bottom"):
            targets.append(self.bottom_target())
            while self.at(","):
                self.next()
                targets.append(self.bottom_target())
            self.expect(":=")
        self.expect("bottom")
        self.expect("(")
        tok = self.peek()
        if tok[0] != "ident":
            raise self.fail(f"expected 'ident', found {tok[1] or tok[0]!r}")
        cause = _CAUSES.get(tok[1])
        if cause is None:
            raise self.fail(f"expected divergence cause, found {tok[1]!r}")
        self.next()
        self.expect(")")
        self.expect(";")
        return ast.BottomAssign(tuple(targets), cause, loc=loc)

    def _rep_name(self, what: str) -> str:
        # `ret` names the return slot and is legal inside bottom targets
        if self.at("ret"):
            return self.next()[1]
        return self.ident(what)

    def bottom_target(self) -> Representative:
        if self.kind() == "partref":
            return ArrayPart(int(self.next()[1].split("#")[1]))
        name = self._rep_name("representative")
        if self.at("::"):
            self.next()
            return Scalar(name, self._rep_name("identifier"))
        if self.at("."):
            self.next()
            return TypeField(name, self.ident("field name"))
        return Scalar(self.method_name, name)

    def assign_or_call(self, loc: ast.Loc) -> ast.Stmt:
        first = self.ident("identifier")
        if self.at("."):  # o.f := x
            self.next()
            fname = self.ident("field name")
            self.expect(":=")
            source = self.ident("identifier")
            self.expect(";")
            return ast.FieldWrite(first, fname, source, loc=loc)
        if self.at("["):  # a[i] := x
            self.next()
            index = self.ident("identifier")
            self.expect("]")
            self.expect(":=")
            source = self.ident("identifier")
            self.expect(";")
            return ast.ArrayWrite(first, index, source, loc=loc)
        self.expect(":=")
        return self.assign_rhs(first, loc)

    def assign_rhs(self, target: str, loc: ast.Loc) -> ast.Stmt:
        tok = self.peek()
        if tok[0] == "int":
            self.next()
            self.expect(";")
            return ast.ConstAssign(target, int(tok[1]), loc=loc)
        if tok[1] == "-" and self.peek(1)[0] == "int":
            self.next()
            value = -int(self.next()[1])
            self.expect(";")
            return ast.ConstAssign(target, value, loc=loc)
        if self.at("null"):
            self.next()
            self.expect(";")
            return ast.ConstAssign(target, None, loc=loc)
        if tok[1] in ast.UNARY_OPS:
            self.next()
            operand = self.ident("identifier")
            self.expect(";")
            return ast.UnaryAssign(target, tok[1], operand, loc=loc)
        first = self.ident("identifier")
        if self.at("("):  # call
            self.next()
            actuals: list[str] = []
            if not self.at(")"):
                actuals.append(self.ident("identifier"))
                while self.at(","):
                    self.next()
                    actuals.append(self.ident("identifier"))
            self.expect(")")
            self.expect(";")
            return ast.Call(target, first, tuple(actuals), loc=loc)
        if self.at("."):  # x := o.f
            self.next()
            fname = self.ident("field name")
            self.expect(";")
            return ast.FieldRead(target, first, fname, loc=loc)
        if self.at("["):  # x := a[i]
            self.next()
            index = self.ident("identifier")
            self.expect("]")
            self.expect(";")
            return ast.ArrayRead(target, first, index, loc=loc)
        if self.peek()[1] in ast.BINARY_OPS:
            op = self.next()[1]
            right = self.ident("identifier")
            self.expect(";")
            return ast.BinaryAssign(target, first, op, right, loc=loc)
        self.expect(";")
        return ast.CopyAssign(target, first, loc=loc)


def parse_unit(source: str, allow_bottom: bool = False, file: str = "") -> ast.Program:
    """Syntax-only parse; use `lang.parse` for the checked front door.
    `file` names the source in the locations, and so in check errors."""
    parser = _Parser(tokenize(source), allow_bottom, file)
    return parser.unit()
