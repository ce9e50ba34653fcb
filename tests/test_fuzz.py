"""Mutated sources through `cook analyze`: a report or a diagnostic, never a
traceback.

Each example takes a generated program and applies a few token mutations:
renaming an identifier to another one of the program, replacing an integer
literal or any token, or deleting, duplicating or swapping tokens. Renames
and literals mostly keep the program parseable, so they reach the checker
and the analysis; the rest mostly reach the parser. A run must either print
a report or exit through click with an `Error:` line.
"""

from functools import lru_cache

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from cook.cli import main
from cook.generator import GenParams, generate_program
from cook.lang import pretty
from cook.lang.lexer import tokenize

PARAMS = GenParams(
    methods=4, classes=2, loop=0.3, opaque_loop=0.1, recursion=0.1, extern=0.1, call=0.4
)
LITERALS = ("0", "1", "9223372036854775807", "9223372036854775808")
# tokens that rarely occur in generated programs but reach other diagnostics
EXTRA = ("bottom", "ret", "part#0", "null", "extends", "while", "{", "}", ";", ":=", "[]", "@")
FLAGS = ([], ["--nested-loops", "summary"], ["--swamp-test", "post", "--format", "json"])


@lru_cache(maxsize=None)
def seed_tokens(seed: int) -> tuple[tuple[str, str], ...]:
    source = pretty(generate_program(seed, PARAMS, normalize=False))
    return tuple((kind, text) for kind, text, _, _ in tokenize(source)[:-1])  # drop eof


@st.composite
def mutants(draw) -> str:
    tokens = list(seed_tokens(draw(st.integers(0, 3))))
    idents = sorted({text for kind, text in tokens if kind == "ident"})
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("rename", "rename", "literal", "replace", "delete", "swap")))
        if op in ("rename", "literal"):
            kind = "ident" if op == "rename" else "int"
            sites = [i for i, t in enumerate(tokens) if t[0] == kind]
            if sites:
                i = draw(st.sampled_from(sites))
                tokens[i] = (kind, draw(st.sampled_from(idents if kind == "ident" else LITERALS)))
            continue
        i = draw(st.integers(0, len(tokens) - 1))
        if op == "replace":
            tokens[i] = ("op", draw(st.sampled_from(EXTRA)))
        elif op == "delete":
            del tokens[i]
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(text for _, text in tokens)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(source=mutants(), flags=st.sampled_from(FLAGS))
def test_mutated_source_gives_report_or_diagnostic(source, flags):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("unit.carib", "w", encoding="utf-8") as fh:
            fh.write(source)
        result = runner.invoke(main, ["analyze", "unit.carib", *flags])
    if result.exit_code == 0:
        assert "methods analyzed:" in result.output or '"method_count"' in result.output
        return
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code == 1 and "Error:" in result.output, result.output
