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

COUNTED_LOOP = """
method count(n: int): int {
  var i: int; var j: int; var one: int; var three: int;
  i := 0; j := 0; one := 1; three := 3;
  while i < n do { i := i + one; j := j + three; }
  return j;
}
"""


def run_pipeline(src: str, safe=frozenset(), swamp_test="pre", nested_policy="basic"):
    program, symbols = load(src)
    model = ProgramModel(program, symbols, safe_list=frozenset(safe),
                         nested_policy=nested_policy)
    tmodel = transformed_model(model)
    result = analyze_program(tmodel, swamp_test=swamp_test)
    return model, result


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
def counted_loop():
    return COUNTED_LOOP
