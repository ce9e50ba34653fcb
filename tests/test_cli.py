"""Command-line behaviour: analyze, run and gen, and diagnostics on bad input."""

import json

import pytest
from click.testing import CliRunner

from cook.cli import main
from cook.lang.parser import MAX_BLOCK_DEPTH


def invoke(tmp_path, args, source=None):
    if source is not None:
        path = tmp_path / "unit.carib"
        path.write_text(source)
        args = [args[0], str(path), *args[1:]]
    return CliRunner().invoke(main, args)


def nested_ifs(depth):
    opens = "if a < x then {\n" * depth
    closes = "}\n" * depth
    return f"method m(a: int): int {{\nvar x: int;\n{opens}x := a;\n{closes}return x;\n}}\n"


def test_analyze_text(tmp_path, counted_loop, api_call_unused):
    result = invoke(tmp_path, ["analyze"], counted_loop + api_call_unused)
    assert result.exit_code == 0, result.output
    assert "island  count" in result.output
    assert "swamp   bar  (7 instructions) [api]" in result.output
    assert "methods analyzed: 3" in result.output


def test_analyze_json(tmp_path, counted_loop, opaque_loop_caller):
    result = invoke(tmp_path, ["analyze", "--format", "json"], counted_loop + opaque_loop_caller)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    verdicts = {m["name"]: m["verdict"] for m in report["methods"]}
    assert verdicts == {"count": "sub_turing", "foo": "swamp", "bar": "swamp"}
    assert report["aggregates"]["loops_total"] == 2


def test_run_prints_the_returned_value(tmp_path, clean_chain):
    result = invoke(tmp_path, ["run", "--entry", "foo"], clean_chain)
    assert result.exit_code == 0, result.output
    assert result.output.strip().endswith(": 1")


def test_run_divides_large_values_exactly(tmp_path):
    src = """
method m(): int {
  var x: int; var y: int; var z: int;
  x := 4611686018427387905; y := 1; z := x / y;
  return z;
}
"""
    result = invoke(tmp_path, ["run", "--entry", "m"], src)
    assert result.exit_code == 0, result.output
    assert result.output.strip().endswith(": 4611686018427387905")


def test_gen_is_deterministic_and_analyzable(tmp_path):
    first = invoke(tmp_path, ["gen", "--seed", "3", "--methods", "4"])
    again = invoke(tmp_path, ["gen", "--seed", "3", "--methods", "4"])
    assert first.exit_code == 0 and first.output == again.output
    assert sum(line.startswith("method ") for line in first.output.splitlines()) == 4
    result = invoke(tmp_path, ["analyze"], first.output)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "source, message",
    [
        ("method m(): int { var x: int; x := 1; return x;", "1:48: expected statement"),
        (
            "method m(): int { var x: int; x := 99999999999999999999999; return x; }",
            "outside the 64-bit range",
        ),
        (
            "method m(): int { var x: int; x := -9223372036854775809; return x; }",
            "outside the 64-bit range",
        ),
        (nested_ifs(MAX_BLOCK_DEPTH + 1), f"nested more than {MAX_BLOCK_DEPTH} deep"),
    ],
    ids=["unclosed-block", "literal-too-large", "literal-too-small", "nested-too-deep"],
)
@pytest.mark.parametrize("command", [["analyze"], ["run", "--entry", "m"]])
def test_malformed_input_is_a_diagnostic(tmp_path, command, source, message):
    result = invoke(tmp_path, command, source)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and message in result.output
    assert "Traceback" not in result.output


def test_nesting_at_the_limit_is_analyzed(tmp_path):
    result = invoke(tmp_path, ["analyze"], nested_ifs(MAX_BLOCK_DEPTH))
    assert result.exit_code == 0, result.output
    assert "island  m" in result.output


def test_non_utf8_input_is_a_diagnostic(tmp_path):
    path = tmp_path / "unit.carib"
    path.write_bytes(b"\xff\xfemethod m(): int { var x: int; x := 1; return x; }\n")
    result = CliRunner().invoke(main, ["analyze", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {path}: not UTF-8" in result.output


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda p: p.write_bytes(b"\xff\xfeapi\n"), "not UTF-8"),
        (lambda p: p.mkdir(), "Is a directory"),
    ],
    ids=["not-utf8", "directory"],
)
def test_unreadable_safe_list_is_a_diagnostic(tmp_path, counted_loop, make, message):
    safe = tmp_path / "safe.txt"
    make(safe)
    result = invoke(tmp_path, ["analyze", "--safe-list", str(safe)], counted_loop)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {safe}: {message}" in result.output


ARGS_PROBE = """
class A { f: int; }
method m(a: int): int { return a; }
method h(a: int[], o: A): int { var n: int; n := 0; return n; }
"""


@pytest.mark.parametrize(
    "entry, args, shown",
    [
        ("m", "[9223372036854775807]", "9223372036854775807"),
        ("m", "[-9223372036854775808]", "-9223372036854775808"),
        ("h", "[[9223372036854775807, -9223372036854775808], null]", "0"),
        ("h", "[null, null]", "0"),
    ],
)
def test_run_accepts_arguments_of_the_formal_types(tmp_path, entry, args, shown):
    result = invoke(tmp_path, ["run", "--entry", entry, "--args", args], ARGS_PROBE)
    assert result.exit_code == 0, result.output
    assert result.output.strip().endswith(f": {shown}")


@pytest.mark.parametrize(
    "entry, args",
    [
        ("m", '["a"]'),
        ("m", "[1.5]"),
        ("m", "[99999999999999999999]"),
        ("m", "[9223372036854775808]"),
        ("m", "[-9223372036854775809]"),
        ("m", "[true]"),
        ("m", "[null]"),
        ("m", "[[1]]"),
        ("m", "[]"),
        ("m", "[1, 2]"),
        ("h", "[[1.5], null]"),
        ("h", "[[true], null]"),
        ("h", "[[9223372036854775808], null]"),
        ("h", "[1, null]"),
        ("h", "[null, 1]"),
        ("h", "[null, [1]]"),
    ],
)
def test_run_rejects_arguments_outside_the_formal_types(tmp_path, entry, args):
    result = invoke(tmp_path, ["run", "--entry", entry, "--args", args], ARGS_PROBE)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and "finished" not in result.output
