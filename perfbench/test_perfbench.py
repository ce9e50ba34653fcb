"""Tests of the benchmark itself: seeded sources, repeatable counters, and
checks that can fail.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import calibration
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def cook():
    return run.import_cook(fresh=False)


@pytest.fixture(scope="module")
def reference():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def small_sources(cook):
    """A few programs of each kind the workloads draw, small enough for a test."""
    loop_keys = workloads.keys("loops", 0)[:40]
    srcs = [workloads.source(cook, key) for key in loop_keys]
    whole = workloads.reordered_text(cook, dict(workloads.CENSUS, methods=12), 0, 3)
    return srcs + [workloads.Source("census-12/3", whole)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_sources_other_seed_differs(cook, workload):
    first = workloads.sources(cook, workload, 7)
    assert workloads.sources(cook, workload, 7) == first
    assert [s.text for s in workloads.sources(cook, workload, 8)] != [s.text for s in first]


def test_every_drawable_program_has_a_reference(reference):
    assert set(workloads.all_keys()) == set(reference)


def test_references_match_at_this_commit(cook, reference):
    srcs = small_sources(cook)[:40]
    checks = run.Checks(reference)
    run.timed_pass(cook, srcs, "summary", checks)
    assert not checks.failed


def test_corrupted_reference_fails_the_program(cook, reference):
    srcs = small_sources(cook)[:40]
    corrupted = dict(reference)
    corrupted[srcs[5].key] = "0" * 16
    checks = run.Checks(corrupted)
    run.timed_pass(cook, srcs, "summary", checks)
    assert checks.mismatches == {5}
    assert len(checks.failed) / len(srcs) > 0


def test_oracle_reports_taints_missing_from_the_facts(cook):
    srcs = small_sources(cook)[-1:]
    bottoms = {}
    checks = run.Checks({})
    run.timed_pass(cook, srcs, "basic", checks, bottoms)
    run.oracle(cook, srcs, "basic", 0, checks, bottoms)
    assert checks.oracle_runs > 0 and checks.oracle_violations == 0 and not checks.errors

    emptied = {0: {mid: frozenset() for mid in bottoms[0]}}
    checks = run.Checks({})
    run.oracle(cook, srcs, "basic", 0, checks, emptied)
    assert checks.oracle_violations > 0 and checks.violations == {0}


def test_two_traced_passes_give_identical_counters(cook):
    srcs = small_sources(cook)
    counters = []
    for _ in range(2):
        with tracing.Tracer(cook) as tracer:
            run.timed_pass(cook, srcs, "summary", run.Checks({}))
        m = tracer.metrics(1)
        counters.append({k: m[k] for k in tracing.COUNTERS})
    assert counters[0] == counters[1]
    assert counters[0]["analysis.pops"] > 0 and counters[0]["termination.judged"] > 0


def test_wrappers_are_removed_after_tracing(cook):
    before = cook.pipeline.build_cfg, cook.analysis.Analyzer.method_facts
    with tracing.Tracer(cook):
        assert cook.pipeline.build_cfg is not before[0]
    assert (cook.pipeline.build_cfg, cook.analysis.Analyzer.method_facts) == before


def test_self_times_exclude_children(cook):
    tracer = tracing.Tracer(cook)
    tracer.spans[:] = [
        ["report.analyze_sources", 0.0, 10.0, -1],
        ["analysis.analyze_program", 1.0, 9.0, 0],
        ["analysis.Analyzer.method_facts", 2.0, 5.0, 1],
    ]
    assert tracer.self_times() == [2.0, 5.0, 3.0]


def test_metric_names_and_units_match_benchmark_json(cook):
    with open(Path(run.HERE).parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = set(tracing.Tracer(cook).metrics(1)) | set(run.Checks({}).counters())
    names.add("trace.overhead_s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.per_layer_unit(n) for n in names
    }
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }.items()


def test_calibration_keeps_its_share_and_scales_times():
    calibrator = calibration.Calibrator()
    calibrator.keep_up(0.1)
    assert calibrator.unit_s >= calibration.SHARE * 0.1
    assert calibrator.units >= calibration.MIN_UNITS
    assert calibration.unit() == 120
    assert calibrator.scale() == pytest.approx(
        calibration.REFERENCE_UNIT_S * calibrator.units / calibrator.unit_s
    )


def test_only_times_are_scaled_to_the_reference_speed():
    metrics = {"lang.parse_ms": 10.0, "lang.parse_kb_per_s": 8.0, "cfg.nodes": 7, "self_share.cfg": 3.0}
    scaled = run.at_reference_speed(metrics, 0.5)
    assert scaled == {"lang.parse_ms": 5.0, "lang.parse_kb_per_s": 16.0, "cfg.nodes": 7, "self_share.cfg": 3.0}
