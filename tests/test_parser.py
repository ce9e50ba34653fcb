"""The parser against the token parser it grew out of.

`reference_parse_unit` (in `tests/reference_parser.py`) is the parser as it
was before simple statements, `var` declarations and method heads were taken
whole by one pattern match each. For every source, both must give equal programs with
equal locations on every class, field, interface, method and statement, or
raise the same diagnostic at the same line and column, under both
`allow_bottom` values.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cook.errors import SyntaxDiagnostic
from cook.generator import GenParams, generate_df_loop, generate_program
from cook.lang import ast, parse_unit, pretty
from cook.lang.lexer import RESERVED
from cook.lang.parser import MAX_BLOCK_DEPTH, _Parser
from reference_parser import reference_parse_unit
from test_fuzz import mutant_tokens


def located(program: ast.Program) -> list[tuple[str, ast.Loc]]:
    """(kind, loc) of every declaration and statement, in source order."""
    out = [("interface", i.loc) for i in program.interfaces]
    for c in program.classes:
        out.append(("class", c.loc))
        out += [("field", f.loc) for f in c.fields]
    for m in program.methods:
        out.append(("method", m.loc))
        out += [(type(s).__name__, s.loc) for s in ast.walk(m.body)]
    return out


def outcome(parse, source: str, allow_bottom: bool):
    try:
        program = parse(source, allow_bottom=allow_bottom, file="unit.carib")
    except SyntaxDiagnostic as e:
        return (e.message, e.line, e.col)
    return program, located(program)


def assert_same(source: str) -> None:
    for allow_bottom in (False, True):
        got = outcome(parse_unit, source, allow_bottom)
        assert got == outcome(reference_parse_unit, source, allow_bottom), (source, allow_bottom)


# Between two tokens: one blank, or else a line break, a tab, CRLF, a comment
# or, when the example allows it, nothing, so that digits and letters glue.
SEPARATORS = ("\n", "\t", "\r\n", "  // note := x;\n", "\n\t\t", "//\n", "\t \r\n ")


@st.composite
def layouts(draw) -> str:
    tokens = draw(mutant_tokens())
    rng = random.Random(draw(st.integers(0, 2**32)))
    other = draw(st.sampled_from((0.0, 0.05, 0.5, 1.0)))  # share of other separators
    separators = SEPARATORS + ("",) * draw(st.integers(0, 1))
    out = []
    for text in tokens:
        if text == "[]" and rng.random() < 0.5:
            text = "[ ]"
        elif text.isdigit() and out and out[-2] == ":=" and rng.random() < 0.5:
            text = "- " + text
        out.append(text)
        out.append(rng.choice(separators) if rng.random() < other else " ")
    return "".join(out)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(source=layouts())
def test_parse_matches_the_reference_on_mutated_layouts(source):
    assert_same(source)


def method(body: str, locals_: str = "var x: int; var y: int; var a: int[]; var o: C;") -> str:
    return f"class C {{ f: int; }}\nmethod m(p: int): int {{\n  {locals_}\n  {body}\n  return x;\n}}\n"


@pytest.mark.parametrize(
    "body",
    [
        "x := y // a comment inside a statement\n + y;",
        "x\n  :=\n y\n +\n y;",
        "x :=\r\n\ty[\tp ]\r\n;",
        "x := - 5;",
        "x := -5;",
        "x := - y;",
        "x := ! y;",
        "x := null;",
        "x := null.f;",
        "x := 12abc;",
        "x := y +1;",
        "x := 007;",
        "x := nullx;",
        "x := m(x , y);",
        "x := m();",
        "x := m(x,);",
        "o.f := x;",
        "o . f := x ;",
        "a[] := x;",
        "a[x] := y;",
        "x := a[];",
        "x := y - - z;",
        "x := y <= z;",
        "x := y // z;",
        "x :== y;",
        "x ::= y;",
        "x, y := y;",
        "x := part#3;",
        "returnx;",
        "return x",
        "if x < ythen { }",
        "if x < y thenx { }",
        "if x < y do { }",
        "while x <= y then { }",
        "if x < = y then { }",
        "if x <== y then { }",
        "if(x < y) then { }",
        "while x != y do// c\n{ x := y; }",
        "if x == y then { } else { x := y; }",
        "x := y @ z;",
        "x :=\x0by;",
        "x := y\x0c;",
        "x :=\xa0y;",
        "x := y; @",
        "// x := y;\n x := bottom(api);",
        "x := bottom(api);",
        "x, y := bottom(loop);",
        "m::x := bottom(recursion);",
        "bottom(api);",
    ],
)
def test_pinned_statement_shapes_match_the_reference(body):
    assert_same(method(body))


@pytest.mark.parametrize(
    "locals_",
    [
        "var x: int; var y: int;\tvar a: int [ ];\r\nvar o: C;",
        "var x: int; // note\n var y: int; var a: int[]; var o: C;",
        "var x: int; var y :\n int; var a: int[ ] ; var o: C;",
        "var x: int; var y: int[][];",
        "var x: int; var y:: int;",
        "var x: int; varz: int;",
        "var x: int; var y: ret;",
        "var x: int; var y: null;",
        "var x: int; var if: int;",
    ],
)
def test_pinned_local_declarations_match_the_reference(locals_):
    assert_same(method("x := 1;", locals_))


@pytest.mark.parametrize(
    "head",
    [
        "method m(a: int [ ], b: C): int [] {",
        "method m(a: int[],b:C):int{",
        "method C . m ( a : int ) : int {",
        "method C.m(o: C) {",
        "method m(\r\n\ta: int,\n\tb: int\n): int {",
        "method m(a: int // c\n): int {",
        "method m(): {",
        "method m(): int[][] {",
        "method m(a: int[x]): int {",
        "method m(a: int,): int {",
        "method m(a int): int {",
        "method m(ret: int): int {",
        "method if(): int {",
        "method m(a: var): int {",
        "method m(): int;",
        "methodm(): int {",
        "extern method e(x: int): int {",
        "extern method e(x: int) : int [ ] ;",
        "externmethod e(x: int);",
    ],
)
def test_pinned_method_heads_match_the_reference(head):
    body = "extern method e(x: int);" if head.startswith("extern") else ""
    assert_same(f"class C {{ }}\n{head}\n  var x: int;\n  return x;\n}}\n{body}")
    assert_same(f"class C {{ }}\n{head}")


FORMS = (
    "{} := 1;",
    "{} := null;",
    "{} := {};",
    "{} := - {};",
    "{} := ! {};",
    "{} := {} * {};",
    "{} := {}.{};",
    "{} := {}[{}];",
    "{} := {}({}, {});",
    "{}.{} := {};",
    "{}[{}] := {};",
    "return {};",
    "if {} < {} then {{ }}",
    "while {} >= {} do {{ }}",
    "var {}: {};",
)


@pytest.mark.parametrize("word", ["ret", "bottom", "if", "null", "var", "then"])
@pytest.mark.parametrize("form", FORMS)
def test_a_reserved_word_in_each_name_slot_matches_the_reference(form, word):
    assert word in RESERVED
    slots = form.count("{}")
    for i in range(slots):
        names = ["x"] * slots
        names[i] = word
        filled = form.format(*names)
        if form.startswith("var"):
            assert_same(method("x := 1;", "var y: int; " + filled))
        else:
            assert_same(method(filled))


def test_constants_and_bottom_statements():
    body = parse_unit(method("x := - 5; x := -5; x := null; y := 007;")).methods[0].body
    assert [s.value for s in body[:4]] == [-5, -5, None, 7]
    for bad in ("x := null.f;", "x := 12abc;", "x := bottom(api);"):
        with pytest.raises(SyntaxDiagnostic):
            parse_unit(method(bad))
    body = parse_unit(method("x := bottom(api); x, y := bottom(loop);"), allow_bottom=True)
    assert [type(s) for s in body.methods[0].body[:2]] == [ast.BottomAssign] * 2


def nested(depth: int) -> str:
    heads = "".join(
        f"{'if x < y then' if d % 2 else 'while x != y do'} {{\n" for d in range(depth)
    )
    return method(heads + "x := y;\n" + "}\n" * depth)


def test_nesting_limit_matches_the_reference():
    assert_same(nested(MAX_BLOCK_DEPTH))
    assert_same(nested(MAX_BLOCK_DEPTH + 1))
    with pytest.raises(SyntaxDiagnostic, match=f"more than {MAX_BLOCK_DEPTH} deep"):
        parse_unit(nested(MAX_BLOCK_DEPTH + 1))


def test_columns_after_tabs_and_crlf_follow_a_whole_statement():
    source = "method m(): int {\r\n\tvar x: int;\r\n\tx := 1;\r\n\t\tx := x + x;\tx := x;\r\n\treturn x;\r\n}"
    assert_same(source)
    body = parse_unit(source).methods[0].body
    assert [(s.loc.line, s.loc.col) for s in body] == [(3, 2), (4, 3), (4, 15), (5, 2)]


def test_an_unexpected_character_after_a_syntax_error_is_the_error():
    # the reference lexed the whole source before parsing
    assert_same("method m( { @")
    assert_same(method("x := ;") + "\n\n  é")
    with pytest.raises(SyntaxDiagnostic, match="unexpected character '@'") as e:
        parse_unit(method("x := ;") + "@")
    assert (e.value.line, e.value.col) == (7, 1)


PROFILES = {
    "census": GenParams(
        methods=16, classes=2, loop=0.2, opaque_loop=0.05, recursion=0.03, extern=0.08, call=0.3
    ),
    "islands": GenParams(
        methods=50, classes=4, loop=0.15, heap=0.6, virtual=0.5, max_depth=1
    ),
    "loop-dense": GenParams(
        methods=3, stmts=(1, 3), loop=0.7, opaque_loop=0.1, max_depth=2, call=0.1
    ),
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_generated_programs_never_reach_the_token_rules(profile, monkeypatch):
    """Every statement, local and method head of a printed program is one
    pattern match; a printer or generator change that sends them back to the
    token rules fails here."""

    def slow(self, *args):
        raise AssertionError(f"token rules reached at {self.loc()}")

    sources = [pretty(generate_program(seed, PROFILES[profile], normalize=False)) for seed in range(4)]
    if profile == "loop-dense":
        sources += [generate_df_loop(seed)[0] for seed in range(20)]
    expected = [reference_parse_unit(s) for s in sources]
    monkeypatch.setattr(_Parser, "statement", slow)
    monkeypatch.setattr(_Parser, "assign_or_call", slow)
    monkeypatch.setattr(_Parser, "local", slow)
    monkeypatch.setattr(_Parser, "method_head", slow)
    for source, program in zip(sources, expected):
        got = parse_unit(source)
        assert got == program and located(got) == located(program)
