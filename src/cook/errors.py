"""Diagnostic exceptions shared across the toolchain."""

from __future__ import annotations


class CaribError(Exception):
    """Base for all user-facing diagnostics; carries a source position and,
    when the position came from a parse given a file name, that file."""

    def __init__(self, message: str, line: int = 0, col: int = 0, file: str = ""):
        self.message = message
        self.line = line
        self.col = col
        self.file = file
        super().__init__(self.format())

    def format(self) -> str:
        if self.line:
            where = f"{self.file}:" if self.file else ""
            return f"{where}{self.line}:{self.col}: {self.message}"
        return self.message


class SyntaxDiagnostic(CaribError):
    """Tokenizer or parser failure; includes what was expected."""


class CheckDiagnostic(CaribError):
    """Name resolution, typing, or structural well-formedness failure."""


class NestedLoopError(Exception):
    """Raised when cycle extraction is asked about a loop containing loops."""


class PathExplosionError(Exception):
    """Raised when a loop body has more acyclic paths than the configured cap."""


class NotDependencyFree(Exception):
    """Raised when a summary is requested for a loop that failed the DF test."""


class NoInductionVariable(Exception):
    """Raised when no uniformly incremented constant-stride counter exists."""
