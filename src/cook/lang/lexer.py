"""Tokenizer for the Carib surface syntax.

A token is a plain `(kind, text, line, col)` tuple, where kind is one of
`ident`, `int`, `partref`, `keyword`, `op` and `eof`, and `line` and `col`
count from 1. The list ends with exactly one `eof` token, whose text is ``""``
and whose position is just past the last character of the source.

`tokenize` is one `finditer` pass over one regex. Every alternative is
preceded by `[ \\t\\r]*`, so spaces, tabs and carriage returns are skipped
inside a match instead of being matches of their own; `\\r` counts as one
column like any other character. A newline is its own match and starts the
next line. A `//` comment runs to the end of its line and yields no token.
A character that starts no token matches the catch-all group, which is the
only error path: it raises `SyntaxDiagnostic("unexpected character …")` at
that character's line and column. The end-of-input alternative `\\Z` gives the
`eof` token and ends the loop.
"""

from __future__ import annotations

import re

from ..errors import SyntaxDiagnostic

KEYWORDS = frozenset(
    {
        "class",
        "interface",
        "extends",
        "implements",
        "method",
        "extern",
        "var",
        "if",
        "then",
        "else",
        "while",
        "do",
        "return",
        "null",
        "bottom",
    }
)

# `ret` names the return slot in summaries; keep it out of user programs.
RESERVED = KEYWORDS | {"ret"}

Token = tuple[str, str, int, int]  # (kind, text, line, col)

_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<nl>\n)
    | (?P<comment>//[^\n]*)
    | (?P<partref>part\#\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>\d+)
    | (?P<op>:=|::|<=|>=|==|!=|\[\]|[{}()\[\],;:.<>+\-*/%!\#])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
""",
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        if kind == "comment":
            continue
        text = m.group(kind)
        col = m.start(kind) - line_start + 1
        if kind == "ident":
            if text in KEYWORDS:
                kind = "keyword"
        elif kind == "bad":
            raise SyntaxDiagnostic(f"unexpected character {text!r}", line, col)
        append((kind, text, line, col))
        if kind == "eof":
            # if this match consumed trailing blanks, `\Z` would match again,
            # empty, at the end
            break
    return tokens
