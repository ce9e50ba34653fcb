"""Shared fixtures: golden sources and pipeline helpers."""

from __future__ import annotations

import pytest

from cook.analysis import analyze_program
from cook.lang import load
from cook.pipeline import ProgramModel
from cook.report import transformed_model

CALL_CHAIN_CLEAN = """
method foo(): int { var x: int; x := 5; x := bar(); return x; }
method bar(): int { var y: int; y := 1; return y; }
"""

OPAQUE_LOOP_CALLER = """
method foo(): int { var x: int; x := 5; x := bar(); return x; }
method bar(): int {
  var lo: int; var hi: int; var y: int; var one: int;
  lo := 0; hi := 1; y := 0; one := 1;
  while lo < hi do { y := y + one; }
  return y;
}
"""

API_CALL_UNUSED = """
method foo(): int {
  var x: int; var unused: int;
  x := 5; unused := bar(); return x;
}
extern method api(): int;
method bar(): int {
  var y: int; var r: int; var zero: int; var one: int;
  y := 0; zero := 0; one := 1;
  r := api();
  if r != zero then { y := y + one; }
  return y;
}
"""

MUTUAL_RECURSION = """
method even(n: int): int { var r: int; r := odd(n); return r; }
method odd(n: int): int { var r: int; r := even(n); return r; }
method top(a: int): int { var x: int; x := a; return x; }
"""

COUNTED_LOOP = """
method count(n: int): int {
  var i: int; var j: int; var one: int; var three: int;
  i := 0; j := 0; one := 1; three := 3;
  while i < n do { i := i + one; j := j + three; }
  return j;
}
"""


def _run_pipeline(src: str, safe=frozenset(), swamp_test="pre", nested_policy="basic"):
    program, symbols = load(src)
    model = ProgramModel(program, symbols, safe_list=frozenset(safe),
                         nested_policy=nested_policy)
    tmodel = transformed_model(model)
    result = analyze_program(tmodel, swamp_test=swamp_test)
    return model, result


@pytest.fixture
def run_pipeline():
    """The helper that parses, models, rewrites and analyzes a source text,
    returning `(model, result)`."""
    return _run_pipeline


@pytest.fixture
def clean_chain():
    return CALL_CHAIN_CLEAN


@pytest.fixture
def opaque_loop_caller():
    return OPAQUE_LOOP_CALLER


@pytest.fixture
def api_call_unused():
    return API_CALL_UNUSED


@pytest.fixture
def mutual_recursion():
    return MUTUAL_RECURSION


@pytest.fixture
def counted_loop():
    return COUNTED_LOOP


def _sequential_loops(k: int) -> str:
    """A method of `k` sequential counted loops, each with fresh names:
    `i_j := 0; n_j := 10; one_j := 1; while i_j < n_j do { x := x + a;
    i_j := i_j + one_j; }`. Every loop terminates."""
    decls = "".join(f"  var i_{j}: int; var n_{j}: int; var one_{j}: int;\n" for j in range(k))
    loops = "".join(
        f"  i_{j} := 0; n_{j} := 10; one_{j} := 1;\n"
        f"  while i_{j} < n_{j} do {{ x := x + a; i_{j} := i_{j} + one_{j}; }}\n"
        for j in range(k)
    )
    return f"method m(a: int): int {{\n  var x: int;\n{decls}  x := 0;\n{loops}  return x;\n}}\n"


@pytest.fixture(scope="session")
def sequential_loops():
    """The source of one method of k sequential counted loops, by k."""
    return _sequential_loops


def _interface_chain(depth: int, assignments: int) -> str:
    """Interfaces `I0` to `I{depth-1}`, each extending the one before, a class
    `C` implementing the last, and a method that assigns its `C` formal to an
    `I0` variable `assignments` times."""
    ifaces = "".join(f"interface I{k} extends I{k - 1} {{}}\n" for k in range(1, depth))
    body = "  i := c;\n" * assignments
    return (
        f"interface I0 {{}}\n{ifaces}class C implements I{depth - 1} {{}}\n"
        f"method m(c: C): int {{\n  var i: I0; var x: int;\n{body}  x := 0;\n  return x;\n}}\n"
    )


def _class_chain(depth: int, calls: int, reads: int = 0) -> str:
    """Classes `C0` to `C{depth-1}`, each extending the one before; `C0` has
    a field `f` and a method `get`. A method `use` makes `calls` virtual calls
    of `get` on a `C0`, which may hold any class of the chain, and reads `f`
    `reads` times through a `C{depth-1}`."""
    classes = "".join(f"class C{k} extends C{k - 1} {{}}\n" for k in range(1, depth))
    body = "  x := get(o);\n" * calls + "  x := p.f;\n" * reads
    return (
        f"class C0 {{ f: int; }}\n{classes}"
        "method C0.get(self: C0): int { var t: int; t := self.f; return t; }\n"
        f"method use(o: C0, p: C{depth - 1}): int {{\n"
        f"  var x: int;\n  x := 0;\n{body}  return x;\n}}\n"
    )


@pytest.fixture(scope="session")
def interface_chain():
    """The source of an interface chain and its assignments, by depth and
    number of assignments."""
    return _interface_chain


@pytest.fixture(scope="session")
def class_chain():
    """The source of a class chain and its calls and field reads, by depth,
    number of calls and number of reads."""
    return _class_chain
