"""Carib language front end: AST, parser, printer, and static checks."""

from __future__ import annotations

from . import ast
from .check import Symbols, check
from .parser import parse_unit
from .printer import pretty


def parse(source: str, allow_bottom: bool = False) -> ast.Program:
    """Parse and validate a compilation unit.

    Raises `SyntaxDiagnostic` or `CheckDiagnostic` with a source position on
    malformed input. `allow_bottom` lets the text hold bottom assignments;
    their targets are validated later, by `AliasAnalysis`, not here.
    """
    return load(source, allow_bottom)[0]


def load(source: str, allow_bottom: bool = False) -> tuple[ast.Program, Symbols]:
    """`parse`, returning the program's symbols too."""
    program = parse_unit(source, allow_bottom=allow_bottom)
    return program, check(program)


__all__ = ["ast", "parse", "parse_unit", "pretty", "check", "load", "Symbols"]
