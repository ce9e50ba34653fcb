"""Report assembly: filters, census, aggregates, JSON shape."""

import json

import pytest

from cook.lang import ast, load, parse, pretty
from cook.report import (
    ReportConfig,
    accessor_filter,
    analyze_sources,
    vc_census,
    vc_sites,
)


def report_for(src, **kw):
    p, sym = load(src)
    return analyze_sources(p, sym, ReportConfig(**kw))


GETTER_SETTER = """
class A { x: int; }
method getX(o: A): int {
  var t: int;
  t := o.x;
  return t;
}
method setX(o: A, v: int): int {
  o.x := v;
  return v;
}
method notGetter(): int {
  var t: int;
  t := 1;
  return t;
}
method loopy(n: int): int {
  var i: int; var one: int;
  one := 1; i := 0;
  while i < n do { i := i + one; }
  return i;
}
"""


def test_accessor_patterns():
    p, sym = load(GETTER_SETTER)
    by_id = {m.id: m for m in p.methods}
    assert accessor_filter(by_id["getX"])
    assert accessor_filter(by_id["setX"])
    assert not accessor_filter(by_id["notGetter"])  # returns a constant, not a field
    assert not accessor_filter(by_id["loopy"])


def test_clean_chain_methods_are_not_accessors(clean_chain):
    p, sym = load(clean_chain)
    assert not any(accessor_filter(m) for m in p.methods)


def test_vc_census_zero_without_derefs(clean_chain):
    p, sym = load(clean_chain)
    assert vc_census(p, frozenset({"foo", "bar"})) == (0, 0)


def test_vc_census_counts_sites_by_island():
    src = """
class A { x: int; }
extern method api(): int;
method island(o: A, a: int[], i: int): int {
  var t: int;
  t := o.x;
  o.x := t;
  t := a[i];
  return t;
}
method swampy(o: A): int {
  var t: int;
  var r: int;
  r := api();
  t := o.x;
  o.x := r;
  return t;
}
"""
    p, sym = load(src)
    by_id = {m.id: m for m in p.methods if not m.extern}
    assert vc_sites(by_id["island"]) == (1, 2)
    assert vc_sites(by_id["swampy"]) == (0, 2)
    total, on_islands = vc_census(p, frozenset({"island"}))
    assert (total, on_islands) == (5, 3)


def test_vc_census_invariant_under_rewrite():
    src = """
class A { x: int; }
extern method api(): int;
method m(o: A): int {
  var t: int; var r: int;
  r := api();
  t := o.x;
  return t;
}
"""
    p, sym = load(src)
    from cook.pipeline import ProgramModel
    from cook.rewrite import rewrite_program

    model = ProgramModel(p, sym)
    before = vc_census(p, frozenset())
    rewrite_program(model)
    after = vc_census(p, frozenset())
    assert before == after


def test_pct_on_half_island_fixture():
    src = """
extern method api(): int;
method a(): int { var x: int; x := 1; return x; }
method b(): int { var x: int; x := 2; return x; }
method c(): int { var x: int; x := api(); return x; }
method d(): int { var x: int; x := api(); return x; }
"""
    rep = report_for(src, min_instructions=0)
    agg = rep.aggregates
    assert agg["method_count"] == 4
    assert agg["st_count"] == 2 and agg["swamp_count"] == 2
    assert agg["pct_st"] == 50.0
    assert agg["pct_st_nontrivial"] == 50.0
    assert agg["cause_breakdown"] == {"api": 100.0}


def test_empty_program_reports_null_percentages():
    rep = report_for("")
    agg = rep.aggregates
    assert agg["method_count"] == 0
    assert agg["pct_st"] is None and agg["pct_st_nontrivial"] is None


def test_safe_list_turns_api_method_into_island(api_call_unused):
    rep = report_for(api_call_unused)
    verdicts = {m.name: m.verdict for m in rep.methods}
    assert verdicts["bar"] == "swamp"
    rep2 = report_for(api_call_unused, safe_list=frozenset({"api"}))
    verdicts2 = {m.name: m.verdict for m in rep2.methods}
    assert verdicts2["bar"] == "sub_turing" and verdicts2["foo"] == "sub_turing"


def test_min_instructions_filter_changes_denominator():
    src = """
extern method api(): int;
method tiny(): int { var x: int; x := 1; return x; }
method big(): int {
  var a: int; var b: int; var c: int; var d: int; var e: int; var r: int;
  a := 1; b := 2; c := 3; d := 4; e := 5;
  r := api();
  a := a + b; b := b + c; c := c + d; d := d + e; e := e + a;
  a := a + b; b := b + c; c := c + d; d := d + e; e := e + a;
  return r;
}
"""
    rep = report_for(src, min_instructions=10)
    agg = rep.aggregates
    # `tiny` is an island but below the size threshold
    assert agg["pct_st"] == 50.0
    assert agg["pct_st_nontrivial"] == 0.0


def test_json_shape_is_stable():
    src = """
extern method api(): int;
method a(): int { var x: int; x := 1; return x; }
method c(): int { var x: int; x := api(); return x; }
"""
    rep = report_for(src, format="json")
    data = json.loads(rep.to_json())
    assert set(data) == {"methods", "aggregates", "config", "timing_ms"}
    assert {m["name"] for m in data["methods"]} == {"a", "c"}
    sample = data["methods"][0]
    assert set(sample) == {
        "name",
        "verdict",
        "causes",
        "instructions",
        "accessor",
        "vc_array",
        "vc_field",
        "loops",
    }
    assert set(data["aggregates"]) == {
        "method_count",
        "st_count",
        "swamp_count",
        "pct_st",
        "pct_st_nontrivial",
        "cause_breakdown",
        "loops_total",
        "loops_terminating",
        "vc_total",
        "vc_on_islands",
    }
    assert data["config"]["swamp_test"] == "pre"
    # counts recompute from the method rows
    st = sum(1 for m in data["methods"] if m["verdict"] == "sub_turing")
    assert st == data["aggregates"]["st_count"]


def test_loop_statistics_counted(counted_loop, opaque_loop_caller):
    rep = report_for(counted_loop)
    assert rep.aggregates["loops_total"] == 1
    assert rep.aggregates["loops_terminating"] == 1
    rep2 = report_for(opaque_loop_caller)
    assert rep2.aggregates["loops_total"] == 1
    assert rep2.aggregates["loops_terminating"] == 0


def test_text_report_mentions_verdicts(api_call_unused):
    rep = report_for(api_call_unused)
    text = rep.to_text()
    assert "swamp" in text and "island" in text or "sub-Turing" in text
    assert "api" in text


@pytest.mark.parametrize("loop_first", [False, True])
def test_long_straight_line_method(loop_first):
    prelude = "one := 1; i := 0; n := 5;\nwhile i < n do { i := i + one; }\n" if loop_first else ""
    src = (
        "method m(a: int): int {\nvar x: int; var i: int; var n: int; var one: int;\n"
        + prelude
        + "x := x + a;\n" * 5000
        + "return x;\n}\n"
    )
    p, sym = load(src)
    again = parse(pretty(p))
    assert again == p and hash(again) == hash(p)
    (m,) = analyze_sources(p, sym, ReportConfig()).methods
    assert m.verdict == "sub_turing"
    assert m.instructions == 5001 + (5 if loop_first else 0)
