"""Report assembly: filters, census, aggregates, JSON shape."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cook.cfg import build_cfg
from cook.generator import GenParams, generate_program
from cook.lang import load, parse, pretty
from cook.lang.check import check
from cook.pipeline import ProgramModel
from cook.report import (
    Report,
    ReportConfig,
    accessor_filter,
    analyze_sources,
    body_counts,
)
from cook.rewrite import rewrite_program


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


def vc_counts(report) -> tuple[int, int]:
    agg = report.aggregates
    return agg["vc_total"], agg["vc_on_islands"]


def test_vc_census_zero_without_derefs(clean_chain):
    report = report_for(clean_chain)
    assert {m.name for m in report.methods if m.verdict == "sub_turing"} == {"foo", "bar"}
    assert vc_counts(report) == (0, 0)


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
    by_id = {m.id: build_cfg(m) for m in p.methods if not m.extern}
    assert body_counts(by_id["island"]) == (4, 1, 2)
    assert body_counts(by_id["swampy"]) == (4, 0, 2)
    report = analyze_sources(p, sym, ReportConfig())
    assert {m.name: m.verdict for m in report.methods} == {
        "island": "sub_turing",
        "swampy": "swamp",
    }
    assert vc_counts(report) == (5, 3)


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
    model = ProgramModel(p, sym)

    def sites():
        counts = [body_counts(build_cfg(m)) for m in p.methods if not m.extern]
        return sum(a + f for _, a, f in counts)

    before = sites()
    rewrite_program(model)
    assert sites() == before == 1


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


# a stride of 5000 needs a constant bound: against `n` it could step over
# INT64_MAX and wrap
@pytest.mark.parametrize(
    "body, stride, limit, bound",
    [
        ("i := i + one;\n" * 5000, 5000, "lim", "100000"),
        ("x := x * y;\n" * 3000 + "i := i + one;\n", 1, "n", "n"),
        ("x := x + x;\n" * 40 + "i := i + one;\n", 1, "n", "n"),
    ],
    ids=["counter", "product", "doubling"],
)
def test_long_loop_body(body, stride, limit, bound):
    src = (
        "method m(n: int, y: int): int {\n"
        "var i: int; var x: int; var one: int; var lim: int;\n"
        f"one := 1; i := 0; x := 1; lim := 100000;\nwhile i < {limit} do {{\n"
        + body
        + "}\nreturn x;\n}\n"
    )
    (m,) = report_for(src).methods
    assert [lp["verdict"] for lp in m.loops] == [
        f"terminates(counter=i, stride={stride}, bound={bound})"
    ]


# `Report.to_json` writes its own JSON; nothing else compares its bytes, since
# the benchmark's digest parses and re-serializes the report.


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# the generator profiles of the benchmark's workloads
CENSUS = dict(
    methods=16, classes=2, loop=0.2, opaque_loop=0.05, recursion=0.03, extern=0.08, call=0.3
)
ISLANDS = dict(methods=50, classes=4, loop=0.15, heap=0.6, virtual=0.5, max_depth=1)
LOOP_DENSE = dict(methods=3, stmts=(1, 3), loop=0.7, opaque_loop=0.1, max_depth=2, call=0.1)


@pytest.mark.parametrize(
    "params, policy",
    ((CENSUS, "basic"), (ISLANDS, "basic"), (LOOP_DENSE, "summary")),
    ids=("census", "islands", "loops"),
)
def test_json_report_is_byte_identical_to_json_dumps(params, policy):
    for seed in range(4):
        program = generate_program(seed, GenParams(**params))
        rep = analyze_sources(program, check(program), ReportConfig(nested_policy=policy))
        assert rep.to_json() == dumps(rep.to_dict()), seed


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e300, 5e-324, float("nan"), float("inf")])
    | st.text(st.characters(blacklist_categories=()))
    | st.sampled_from(["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "é€😀", "\ud800"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(json_values, st.floats())
def test_json_writer_is_byte_identical_to_json_dumps(value, timing_ms):
    rep = Report([], {"value": value, "empty": {}, "none": []}, {}, timing_ms)
    assert rep.to_json() == dumps(rep.to_dict())


@pytest.mark.parametrize("value", [(1, 2), {1}, {1: "a"}, b"x", object()])
def test_json_writer_rejects_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        Report([], {"value": value}, {}, 0.0).to_json()
