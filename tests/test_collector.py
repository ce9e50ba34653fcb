"""A pass leaves no cyclic garbage, so it can run with the cycle collector off.

`report.analyze_sources` disables Python's cycle collector for the whole pass
and restores the caller's setting afterwards. That is only safe while
everything a pass drops is freed by reference counting alone. The guard runs
parse, check, `analyze_sources` and `Report.to_json` on programs of the
benchmark's three generator profiles, under both nested-loop policies and
both swamp-test placements, with `gc.DEBUG_SAVEALL` set, and asserts that no
collection, during the pass or after it, finds anything; parse and check
are also guarded on their own. A negative control puts back a
self-referencing closure, as the CFG builder's recursive `build` once was,
and checks that the guard reports it. The other tests check that the pass
runs with the collector off and leaves the caller's collector state,
thresholds and frozen count as they were, also when the pass raises, and
that `cook analyze` parses and checks inside the same bracket.
"""

import gc
from contextlib import nullcontext

import pytest
from click.testing import CliRunner

from cook import cli, pipeline, report
from cook.cli import main
from cook.generator import GenParams, generate_program
from cook.lang import parse_unit, pretty
from cook.lang.check import check
from cook.pipeline import BASIC, SUMMARY
from cook.report import ReportConfig, analyze_sources
from profiles import CENSUS, ISLANDS, LOOP_DENSE

# (profile, seeds): a loop-dense program has three methods, so it gets more
PROFILES = {"census": (CENSUS, (1,)), "islands": (ISLANDS, (1,)), "loops": (LOOP_DENSE, range(8))}


def sources(profile):
    params, seeds = PROFILES[profile]
    return [pretty(generate_program(seed, GenParams(**params), normalize=False)) for seed in seeds]


def one_pass(srcs, policy="basic", swamp_test="pre"):
    """Parse, check, analyze and print each source, and keep nothing."""
    config = ReportConfig(nested_policy=policy, swamp_test=swamp_test)
    for src in srcs:
        program = parse_unit(src)
        analyze_sources(program, check(program), config).to_json()


def assert_no_cyclic_garbage(run):
    """Fail, naming the types found, if the objects `run()` drops include
    any that only the cycle collector could free."""
    gc.collect()
    flags = gc.get_debug()
    start = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
    finally:
        gc.set_debug(flags)
        # collections the allocator started during `run` saved their finds too
        found = gc.garbage[start:]
        del gc.garbage[start:]
    kinds = sorted({type(o).__name__ for o in found})
    assert not found, f"{len(found)} objects in reference cycles, of types {kinds}"


@pytest.mark.parametrize("swamp_test", ("pre", "post"))
@pytest.mark.parametrize("policy", (BASIC, SUMMARY))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_a_pass_leaves_no_cyclic_garbage(profile, policy, swamp_test):
    srcs = sources(profile)
    assert_no_cyclic_garbage(lambda: one_pass(srcs, policy, swamp_test))


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_parse_and_check_leave_no_cyclic_garbage(profile):
    """The front end on its own, so that a cycle it leaves is told apart
    from one the analysis leaves: each source's AST and symbols are dropped
    once it is checked."""
    srcs = sources(profile)

    def front_end():
        for src in srcs:
            check(parse_unit(src))

    assert_no_cyclic_garbage(front_end)


def test_the_guard_reports_a_self_referencing_closure(monkeypatch):
    build_cfg = pipeline.build_cfg

    def leaky_build_cfg(m):
        def build(depth):  # refers to itself through its own closure cell
            return depth if depth == 0 else build(depth - 1)

        build(1)
        return build_cfg(m)

    monkeypatch.setattr(pipeline, "build_cfg", leaky_build_cfg)
    flags = gc.get_debug()
    with pytest.raises(AssertionError, match=r"of types \[.*'cell'.*'function'"):
        assert_no_cyclic_garbage(lambda: one_pass(sources("census")))
    assert gc.get_debug() == flags


def test_the_pass_runs_with_the_collector_off(monkeypatch):
    seen = []
    analyze_program = report.analyze_program

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return analyze_program(*args, **kwargs)

    monkeypatch.setattr(report, "analyze_program", recording)
    assert gc.isenabled()
    one_pass(sources("census"))
    assert seen == [False] and gc.isenabled()


@pytest.mark.parametrize("raises", (False, True), ids=("returns", "raises"))
@pytest.mark.parametrize("enabled", (True, False), ids=("caller-on", "caller-off"))
def test_a_pass_restores_the_callers_collector_state(monkeypatch, enabled, raises):
    if raises:

        def fail(*args, **kwargs):
            raise RuntimeError("analysis failed")

        monkeypatch.setattr(report, "analyze_program", fail)
    threshold, frozen = gc.get_threshold(), gc.get_freeze_count()
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(RuntimeError, match="analysis failed") if raises else nullcontext():
            one_pass(sources("census"))
        assert gc.isenabled() == enabled
        assert gc.get_threshold() == threshold
        assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()


def test_cook_analyze_leaves_the_collector_on(tmp_path):
    path = tmp_path / "unit.carib"
    path.write_text(sources("census")[0])
    assert gc.isenabled()
    result = CliRunner().invoke(main, ["analyze", "--format", "json", str(path)])
    assert result.exit_code == 0, result.output
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", (True, False), ids=("caller-on", "caller-off"))
@pytest.mark.parametrize("valid", (True, False), ids=("checks", "check-fails"))
def test_cook_analyze_parses_with_the_collector_off(tmp_path, monkeypatch, enabled, valid):
    """`cook analyze` runs parse, check and the pass in one collector-off
    bracket, and leaves the caller's state as it was, also when `check`
    rejects the program."""
    seen = []
    parse_unit = cli.parse_unit

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return parse_unit(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_unit", recording)
    path = tmp_path / "unit.carib"
    text = sources("census")[0]
    path.write_text(text if valid else text + "method m1(): int { var x: int; x := 1; return x; }\n")
    if not enabled:
        gc.disable()
    try:
        result = CliRunner().invoke(main, ["analyze", "--format", "json", str(path)])
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert seen == [False]
    if valid:
        assert result.exit_code == 0, result.output
    else:  # a `CheckDiagnostic`
        assert result.exit_code == 1 and "duplicate method 'm1'" in result.output, result.output
