"""Command-line behaviour: analyze, run and gen, and diagnostics on bad input."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cook.cli import main
from cook.generator import GenParams, generate_program
from cook.lang import parse_unit, pretty
from cook.lang.check import check
from cook.lang.parser import MAX_BLOCK_DEPTH
from cook.pipeline import ProgramModel
from cook.rewrite import rewrite_program
from profiles import CENSUS


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


def test_analyze_reports_mutual_recursion(tmp_path, mutual_recursion):
    result = invoke(tmp_path, ["analyze"], mutual_recursion)
    assert result.exit_code == 0, result.output
    assert "swamp   even  (2 instructions) [recursion]" in result.output
    assert "swamp   odd  (2 instructions) [recursion]" in result.output
    assert "island  top  (2 instructions)" in result.output


def test_dump_cfg_labels_nodes_with_their_statements(tmp_path, counted_loop):
    result = invoke(tmp_path, ["analyze", "--dump-cfg"], counted_loop)
    assert result.exit_code == 0, result.output
    labels = [line for line in result.output.splitlines() if "[label=" in line and "->" not in line]
    assert labels[:2] == ['  n0 [label="entry", shape=box];', '  n1 [label="exit", shape=box];']
    assert any(line.endswith('[label="i := i + one;", shape=box];') for line in labels), labels
    assert any("shape=diamond" in line for line in labels)


# an `if` inside a `while`, with a return in one arm
BRANCHES_AND_RETURNS = """
method m(a: int, n: int): int {
  var i: int; var one: int; var zero: int;
  i := 0; one := 1; zero := 0;
  while i < n do {
    if a > zero then { return i; } else { i := i + one; }
  }
  return a;
}
"""

BRANCHES_AND_RETURNS_DOT = """\
digraph "m" {
  n0 [label="entry", shape=box];
  n1 [label="exit", shape=box];
  n2 [label="i := 0;", shape=box];
  n3 [label="one := 1;", shape=box];
  n4 [label="zero := 0;", shape=box];
  n5 [label="i < n", shape=diamond];
  n6 [label="a > zero", shape=diamond];
  n7 [label="return i;", shape=box];
  n8 [label="i := i + one;", shape=box];
  n9 [label="return a;", shape=box];
  n0 -> n2;
  n2 -> n3;
  n3 -> n4;
  n4 -> n5;
  n5 -> n6 [label="T"];
  n5 -> n9 [label="F"];
  n6 -> n7 [label="T"];
  n6 -> n8 [label="F"];
  n7 -> n1;
  n8 -> n5;
  n9 -> n1;
}
"""


def test_dump_cfg_text_is_pinned(tmp_path):
    result = invoke(tmp_path, ["analyze", "--dump-cfg"], BRANCHES_AND_RETURNS)
    assert result.exit_code == 0, result.output
    assert result.output.startswith(BRANCHES_AND_RETURNS_DOT)
    assert result.output[len(BRANCHES_AND_RETURNS_DOT) :].startswith("island  m  (8 instructions)")


def dot_edges(output: str) -> list[tuple[str, str]]:
    return [
        tuple(end.strip().strip('";') for end in line.split(" -> "))
        for line in output.splitlines()
        if " -> " in line
    ]


def test_dump_callgraph_has_one_edge_per_call_graph_edge(tmp_path, mutual_recursion):
    result = invoke(tmp_path, ["analyze", "--dump-callgraph"], mutual_recursion)
    assert result.exit_code == 0, result.output
    assert result.output.startswith("digraph callgraph {\n")
    assert sorted(dot_edges(result.output)) == [("even", "odd"), ("odd", "even")]
    for seed in range(3):
        program = generate_program(seed, GenParams(**CENSUS))
        result = invoke(tmp_path, ["analyze", "--dump-callgraph"], pretty(program))
        assert result.exit_code == 0, result.output
        edges = ProgramModel(program).callgraph.edges
        assert edges and sorted(dot_edges(result.output)) == sorted(edges), seed


def test_dump_summaries_prints_each_loop_verdict_and_summary(tmp_path, counted_loop, opaque_loop_caller):
    result = invoke(tmp_path, ["analyze", "--dump-summaries"], counted_loop + opaque_loop_caller)
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[:5] == [
        "count loop@5: terminates(counter=i, stride=1, bound=n)",
        "  j' = j + 3 * num(x < n, i, i'-1)",
        "  exit: i' = first i with not (i < n)",
        "bar loop@13: unknown(no bounded constant-stride counter)",
        "  identity",
    ]


def phi_text(output: str) -> str:
    """The program `--dump-phi` prints, before the report's method lines."""
    lines = output.splitlines(keepends=True)
    end = next(k for k, line in enumerate(lines) if line.startswith(("island ", "swamp ")))
    return "".join(lines[:end])


@pytest.mark.parametrize(
    "params", (CENSUS, dict(methods=20, recursion=0.3, call=0.5)), ids=("census", "recursive")
)
def test_dump_phi_parses_back_to_the_rewritten_program(tmp_path, params):
    rewritten = 0
    for seed in range(4):
        program = generate_program(seed, GenParams(**params))
        result = invoke(tmp_path, ["analyze", "--dump-phi"], pretty(program))
        assert result.exit_code == 0, result.output
        phi = parse_unit(phi_text(result.output), allow_bottom=True)
        check(phi)
        assert phi == rewrite_program(ProgramModel(program)), seed
        rewritten += phi != program
    assert rewritten


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


def test_run_rejects_negative_fuel(tmp_path, clean_chain):
    result = invoke(tmp_path, ["run", "--entry", "foo", "--fuel", "-1"], clean_chain)
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--fuel'" in result.output


def test_run_rejects_an_extern_entry(tmp_path, api_call_unused):
    result = invoke(tmp_path, ["run", "--entry", "api"], api_call_unused)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: cannot run extern method 'api'" in result.output


def test_python_m_cook_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "cook", "--help"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "analyze" in done.stdout and "run" in done.stdout


def test_gen_is_deterministic_and_analyzable(tmp_path):
    first = invoke(tmp_path, ["gen", "--seed", "3", "--methods", "4"])
    again = invoke(tmp_path, ["gen", "--seed", "3", "--methods", "4"])
    assert first.exit_code == 0 and first.output == again.output
    assert sum(line.startswith("method ") for line in first.output.splitlines()) == 4
    result = invoke(tmp_path, ["analyze"], first.output)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "option, value",
    [
        ("--methods", "-1"),
        ("--classes", "-2"),
        ("--loop", "5"),
        ("--opaque-loop", "-0.1"),
        ("--recursion", "1.5"),
        ("--extern", "2"),
        ("--call", "-1"),
    ],
)
def test_gen_rejects_counts_and_densities_out_of_range(tmp_path, option, value):
    out = tmp_path / "gen.carib"
    result = invoke(tmp_path, ["gen", option, value, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert not out.exists()


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
    "second, message",
    [
        ("method r(): int { var x: int; x := 1; return x; }", "1:1: duplicate method 'r'"),
        ("method s(): int { var x: int;\n x := q(); return x; }", "2:2: call to undeclared method 'q'"),
    ],
    ids=["duplicate-method", "undeclared-callee"],
)
def test_check_error_names_its_file(tmp_path, second, message):
    first, other = tmp_path / "a.carib", tmp_path / "b.carib"
    first.write_text("method r(): int { var x: int; x := 1; return x; }\n")
    other.write_text(second + "\n")
    result = CliRunner().invoke(main, ["analyze", str(first), str(other)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {other}:{message}" in result.output


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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda p: p / "missing" / "x.carib", "No such file or directory"),
        (lambda p: p, "Is a directory"),
    ],
    ids=["missing-directory", "directory"],
)
def test_unwritable_gen_output_is_a_diagnostic(tmp_path, make, message):
    out = make(tmp_path)
    result = invoke(tmp_path, ["gen", "--methods", "2", "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {out}: {message}" in result.output


def test_run_args_nested_too_deep_is_a_diagnostic(tmp_path):
    args = "[" * 20_000 + "]" * 20_000
    result = invoke(tmp_path, ["run", "--entry", "m", "--args", args], ARGS_PROBE)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: bad --args: nested too deep" in result.output



@pytest.mark.parametrize(
    "args",
    ["[" * 980 + "]" * 980, str(list(range(5000)))],
    ids=["nested-980-deep", "5000-long"],
)
def test_a_rejected_argument_is_echoed_short(tmp_path, args):
    # a real process: under the test runner's deeper stack, json.loads
    # already refuses the nested value
    (tmp_path / "unit.carib").write_text(ARGS_PROBE)
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "cook", "run", "unit.carib", "--entry", "m", "--args", f"[{args}]"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1 and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("Error: bad --args: a: int cannot be ")
    assert line.endswith("…") and len(line) < 120


def test_analyze_judges_every_loop_of_a_long_method(tmp_path, sequential_loops):
    (tmp_path / "unit.carib").write_text(sequential_loops(300))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "cook", "analyze", "unit.carib", "--format", "json"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (method,) = json.loads(done.stdout)["methods"]
    assert len(method["loops"]) == 300
    assert all(loop["terminates"] for loop in method["loops"])
