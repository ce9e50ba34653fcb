"""The tokenizer against the match-per-position reference it replaced, and
pinned positions at the edges of the lexer and of the parser's look-ahead."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from cook.errors import SyntaxDiagnostic
from cook.lang import ast, parse_unit
from cook.lang.lexer import KEYWORDS, tokenize

_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<partref>part\#\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<op>:=|::|<=|>=|==|!=|\[\]|[{}()\[\],;:.<>+\-*/%!#])
""",
    re.VERBOSE,
)


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """One `match` per position; whitespace and comments are matches that
    yield no token."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    n = len(source)
    while pos < n:
        m = _REFERENCE_RE.match(source, pos)
        if m is None:
            raise SyntaxDiagnostic(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            col = m.start() - line_start + 1
            if kind == "ident" and text in KEYWORDS:
                kind = "keyword"
            tokens.append((kind, text, line, col))
        pos = m.end()
    tokens.append(("eof", "", line, n - line_start + 1))
    return tokens


def outcome(tokenizer, source: str):
    try:
        return tokenizer(source)
    except SyntaxDiagnostic as e:
        return (e.message, e.line, e.col)


PIECES = (
    *sorted(KEYWORDS), "ret", "x", "_a1", "part", "part#", "part#3", "0", "42",
    ":=", "::", "<=", ">=", "==", "!=", "[]", "{", "}", "(", ")", "[", "]", ",",
    ";", ":", ".", "<", ">", "+", "-", "*", "/", "%", "!", "#", "=",
    " ", "  ", "\t", "\r", "\n", "\r\n", "//", "// note", "@", "é", '"', "\x00",
)
CHARS = "aZ_09#:=<>!-+*/%{}()[],;. \t\r\n@é\"\x00"
SOURCES = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(alphabet=CHARS, max_size=3)), max_size=40
).map("".join)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(source=SOURCES)
def test_tokenize_matches_the_reference(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


def test_columns_after_tabs_and_crlf():
    assert tokenize("\tx\r\n  y\t:= 1;") == [
        ("ident", "x", 1, 2),
        ("ident", "y", 2, 3),
        ("op", ":=", 2, 5),
        ("int", "1", 2, 8),
        ("op", ";", 2, 9),
        ("eof", "", 2, 10),
    ]


def test_comment_at_end_of_input():
    assert tokenize("x // note") == [("ident", "x", 1, 1), ("eof", "", 1, 10)]
    assert tokenize("//") == [("eof", "", 1, 3)]


def test_eof_position():
    assert tokenize("") == [("eof", "", 1, 1)]
    assert tokenize("x  \n \t") == [("ident", "x", 1, 1), ("eof", "", 2, 3)]
    assert tokenize("\n") == [("eof", "", 2, 1)]


def test_single_tokens():
    assert tokenize("[]") == [("op", "[]", 1, 1), ("eof", "", 1, 3)]
    assert tokenize("[ ]") == [("op", "[", 1, 1), ("op", "]", 1, 3), ("eof", "", 1, 4)]
    assert tokenize("part#3") == [("partref", "part#3", 1, 1), ("eof", "", 1, 7)]
    assert tokenize("part #3")[:3] == [
        ("ident", "part", 1, 1),
        ("op", "#", 1, 6),
        ("int", "3", 1, 7),
    ]
    assert tokenize("-5") == [("op", "-", 1, 1), ("int", "5", 1, 2), ("eof", "", 1, 3)]
    assert tokenize("while whilex") == [
        ("keyword", "while", 1, 1),
        ("ident", "whilex", 1, 7),
        ("eof", "", 1, 13),
    ]


def test_array_type_with_a_blank_between_brackets():
    spaced = parse_unit("method m(a: int[ ]): int { return a; }")
    assert spaced.methods[0].formals == (ast.Param("a", "int[]"),)
    assert spaced == parse_unit("method m(a: int[]): int { return a; }")  # Locs aside


def test_unexpected_character_after_leading_whitespace():
    with pytest.raises(SyntaxDiagnostic) as e:
        tokenize("x\n \t @")
    assert (e.value.message, e.value.line, e.value.col) == ("unexpected character '@'", 2, 4)


HEAD = "method m(): int { var x: int; var a: int; "


@pytest.mark.parametrize(
    "tail, message, col",
    [
        # `x ::` at the end makes the bottom look-ahead read one token past `eof`
        ("x ::", "expected ':=', found '::'", 45),
        ("x :: y", "expected ':=', found '::'", 45),
        ("x .", "expected field name, found 'eof'", 46),
        ("a,", "expected ':=', found ','", 44),
        ("a, x :=", "expected ':=', found ','", 44),
        ("a, m::", "expected ':=', found ','", 44),
        ("part#0,", "expected representative, found 'eof'", 50),
        ("part#0 :=", "expected 'bottom', found 'eof'", 52),
    ],
)
def test_truncated_bottom_statement_is_a_diagnostic(tail, message, col):
    with pytest.raises(SyntaxDiagnostic) as e:
        parse_unit(HEAD + tail, allow_bottom=True)
    assert (e.value.message, e.value.line, e.value.col) == (message, 1, col)
