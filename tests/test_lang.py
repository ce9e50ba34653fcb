"""Front-end tests: parsing, printing, validation, free variables."""

import pytest

from cook.errors import CheckDiagnostic, SyntaxDiagnostic
from cook.generator import GenParams, generate_program
from cook.lang import ast, load, parse, pretty
from cook.lang.parser import MAX_BLOCK_DEPTH


def test_call_chain_parses_to_two_methods(clean_chain):
    p = parse(clean_chain)
    assert len(p.methods) == 2
    assert len(p.classes) == 0
    assert [m.id for m in p.methods] == ["foo", "bar"]


def test_empty_file():
    p = parse("")
    assert p.methods == () and p.classes == ()


def test_roundtrip_generated_programs():
    for seed in range(60):
        p = generate_program(
            seed,
            GenParams(methods=6, loop=0.25, opaque_loop=0.05, recursion=0.05, extern=0.1),
            normalize=False,
        )
        assert parse(pretty(p)) == p


def test_pretty_deterministic(clean_chain):
    p = parse(clean_chain)
    assert pretty(p) == pretty(parse(clean_chain))


def test_pretty_of_canonical_text_is_fixed_point():
    sources = [
        "method m(): int {\n  var x: int;\n  x := 1;\n  return x;\n}\n",
        (
            "class A {\n  f: int;\n}\n\nmethod get(o: A): int {\n  var t: int;\n"
            "  t := o.f;\n  return t;\n}\n"
        ),
    ]
    for canonical in sources:
        assert pretty(parse(canonical)) == canonical


def test_nested_dereference_rejected():
    src = """
    class A { f: A; }
    method m(o: A): int {
      var x: int;
      x := o.f.g;
      return x;
    }
    """
    with pytest.raises(SyntaxDiagnostic):
        parse(src)


def test_expression_nesting_rejected():
    with pytest.raises(SyntaxDiagnostic):
        parse("method m(a: int, b: int): int { var x: int; x := a + b + a; return x; }")


def test_condition_requires_identifiers():
    with pytest.raises(SyntaxDiagnostic):
        parse("method m(a: int): int { if a < 3 then { } return a; }")


def test_syntax_error_carries_position():
    try:
        parse("method m(): int {\n  x := ;\n  return x;\n}")
    except SyntaxDiagnostic as e:
        assert e.line == 2
    else:
        pytest.fail("expected a syntax error")


def test_undeclared_identifier():
    with pytest.raises(CheckDiagnostic):
        parse("method m(): int { var x: int; x := y; return x; }")


def test_unknown_type_reference():
    with pytest.raises(CheckDiagnostic):
        parse("method m(o: Nope): int { var x: int; x := 0; return x; }")


def test_inheritance_cycle_rejected():
    with pytest.raises(CheckDiagnostic):
        parse("class A extends B {} class B extends A {} method m(): int { var x: int; x := 0; return x; }")


def test_missing_return_rejected():
    with pytest.raises(CheckDiagnostic):
        parse("method m(a: int): int { var x: int; if a < x then { return a; } }")


def test_unreachable_statement_rejected():
    with pytest.raises(CheckDiagnostic):
        parse(
            "method m(a: int): int { return a; a := a; }"
        )


def test_bottom_rejected_in_source():
    with pytest.raises(SyntaxDiagnostic):
        parse("method m(): int { var x: int; x := bottom(loop); return x; }")


def test_ret_is_reserved():
    with pytest.raises(SyntaxDiagnostic):
        parse("method m(): int { var ret: int; ret := 0; return ret; }")


def test_int64_literal_bounds():
    for value in (-(2**63), 2**63 - 1):
        p = parse(f"method m(): int {{ var x: int; x := {value}; return x; }}")
        assert p.methods[0].body[0].value == value
    for value in (-(2**63) - 1, 2**63):
        with pytest.raises(CheckDiagnostic, match="64-bit range"):
            parse(f"method m(): int {{ var x: int; x := {value}; return x; }}")


def nested_blocks(depth):
    heads = ["if a < x then {", "while a < x do {"]
    lines = ["method m(a: int): int {", "var x: int;"]
    lines += [heads[d % 2] for d in range(depth)]
    lines += ["x := a;"] + ["}"] * depth + ["return x;", "}"]
    return "\n".join(lines) + "\n"


def test_nesting_up_to_the_limit_round_trips():
    p = parse(nested_blocks(MAX_BLOCK_DEPTH))
    assert parse(pretty(p)) == p
    assert hash(p) == hash(parse(pretty(p)))


def test_nesting_past_the_limit_is_a_syntax_error():
    with pytest.raises(SyntaxDiagnostic, match="nested") as info:
        parse(nested_blocks(MAX_BLOCK_DEPTH + 1))
    # the innermost block's brace, on the line of the offending header
    assert info.value.line == MAX_BLOCK_DEPTH + 3


def test_empty_else_is_an_empty_block():
    p = parse("method m(a: int): int { if a < a then { a := a; } else { } return a; }")
    branch = p.methods[0].body[0]
    assert branch.else_body == ()
    assert "else" not in pretty(p)
    assert parse(pretty(p)) == p


def test_locations_are_total():
    p = parse(
        """
method m(a: int): int {
  var x: int;
  x := 1;
  while a < x do { x := x + a; }
  if x < a then { x := a; } else { x := x; }
  return x;
}
"""
    )
    for m in p.methods:
        for s in ast.walk(m.body):
            assert s.loc.line > 0, f"missing location on {type(s).__name__}"


def test_grammar_assign_forms_cover_eight_shapes():
    src = """
class A { f: int; }
method m(o: A, arr: int[], i: int): int {
  var x: int; var y: int;
  x := 1;
  y := x;
  x := - y;
  x := x + y;
  x := o.f;
  o.f := x;
  x := arr[i];
  arr[i] := x;
  return x;
}
"""
    p = parse(src)
    kinds = {type(s) for s in ast.walk(p.methods[0].body)}
    for form in ast.ASSIGN_FORMS:
        assert form in kinds


def test_duplicate_method_rejected():
    with pytest.raises(CheckDiagnostic):
        parse(
            "method m(): int { var x: int; x := 0; return x; }"
            "method m(): int { var x: int; x := 1; return x; }"
        )


def test_virtual_call_requires_receiver():
    src = """
class A { f: int; }
method A.get(self: A): int { var t: int; t := self.f; return t; }
method m(): int { var x: int; x := get(); return x; }
"""
    with pytest.raises(CheckDiagnostic):
        parse(src)
