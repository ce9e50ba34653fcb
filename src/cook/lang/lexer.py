"""Tokenizer for the Carib surface syntax: a pull lexer over the source text.

`next_token(source, pos)` is one `_TOKEN_RE.match` at a character offset. It
skips blanks, newlines and `//` comments, then returns the next token as
`(kind, text, start, end)`: kind is one of `ident`, `int`, `partref`,
`keyword`, `op` and `eof`, and `start`/`end` are offsets into the source.
At the end of the source it returns `eof`, whose text is ``""`` and whose
offsets are both the source's length, every time it is asked again. A
character that starts no token matches the catch-all group, which is the
only error path: it raises `SyntaxDiagnostic("unexpected character …")` at
that character's line and column.

Positions are offsets until someone needs a line and a column. `Lines`
turns offsets into 1-based `(line, col)` pairs: only `\\n` starts a line,
and `\\r` and `\\t` count one column like any other character. It counts
newlines forward from the last offset it was asked about, so a reader that
asks in source order pays for each newline once.

`tokenize` lexes the whole source into `(kind, text, line, col)` tuples,
ending with exactly one `eof` token placed just past the last character of
the source. The parser does not use it: it pulls tokens with `next_token`.
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
Lexeme = tuple[str, str, int, int]  # (kind, text, start, end)

_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?://[^\n]*(?![^\n])[ \t\r\n]*)*
    (?:
      (?P<partref>part\#\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>\d+)
    | (?P<op>:=|::|<=|>=|==|!=|\[\]|[{}()\[\],;:.<>+\-*/%!\#])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
""",
    re.VERBOSE,
)


class Lines:
    """Line and column of offsets into one source. Offsets asked in
    increasing order cost one pass over the text; a smaller offset than the
    last one starts the count over from the top."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0  # offset counted up to
        self.line = 1  # line of `pos`
        self.line_start = 0  # offset of that line's first character

    def at(self, pos: int) -> tuple[int, int]:
        if pos < self.pos:
            self.pos, self.line, self.line_start = 0, 1, 0
        newlines = self.source.count("\n", self.pos, pos)
        if newlines:
            self.line += newlines
            self.line_start = self.source.rfind("\n", self.pos, pos) + 1
        self.pos = pos
        return self.line, pos - self.line_start + 1


def next_token(source: str, pos: int) -> Lexeme:
    m = _TOKEN_RE.match(source, pos)
    kind = m.lastgroup
    text = m.group(kind)
    start = m.start(kind)
    if kind == "ident":
        if text in KEYWORDS:
            kind = "keyword"
    elif kind == "bad":
        raise SyntaxDiagnostic(f"unexpected character {text!r}", *Lines(source).at(start))
    return kind, text, start, m.end()


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    lines = Lines(source)
    pos = 0
    while True:
        kind, text, start, pos = next_token(source, pos)
        tokens.append((kind, text, *lines.at(start)))
        if kind == "eof":
            return tokens
