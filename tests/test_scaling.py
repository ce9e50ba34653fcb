"""Work counters that must grow linearly with the program.

Three shapes of program are grown:

* call chains: `m{k}` calls `m{k+1}` and the last one returns its formal; no
  loops, no APIs, every method an island;
* census-profile programs (the benchmark's `census` profile, generator seed
  0) of 125, 250 and 500 methods, with loops, APIs and recursion; some of
  their methods are in the swamp;
* one method of 250, 500 and 1000 sequential counted loops, each with fresh
  names, whose loops `ProgramModel` judges;
* census-profile programs of 250, 500 and 1000 methods as the generator
  builds them, counting the methods it examines as call targets.

Doubling the program may at most double each counter, with a little slack;
a counter that grows faster is a quadratic cost on large programs. Nothing
is timed.
"""

from __future__ import annotations

import pytest

from cook import analysis, generator
from cook.analysis import AnalysisResult, Analyzer, analyze_program
from cook.cfg import DomTree, LoopInfo
from cook.generator import GenParams, generate_program
from cook.lang import ast, load
from cook.pipeline import ProgramModel
from cook.report import transformed_model
from profiles import CENSUS

CHAIN_SIZES = (250, 500, 1000)
CENSUS_SIZES = (125, 250, 500)
LOOP_SIZES = (250, 500, 1000)
GEN_SIZES = (250, 500, 1000)
GROWTH = 2.2  # the most a counter may grow when the program doubles


def chain(n: int) -> ast.Program:
    calls = [
        f"method m{k}(a: int): int {{ var x: int; x := m{k + 1}(a); return x; }}\n"
        for k in range(n - 1)
    ]
    return load("".join(calls) + f"method m{n - 1}(a: int): int {{ return a; }}\n")[0]


def census(n: int) -> ast.Program:
    return generate_program(0, GenParams(**dict(CENSUS, methods=n)))


def counters(program: ast.Program) -> tuple[dict[str, int], ProgramModel, AnalysisResult]:
    """The analysis's work on a program, the model it ran on, and its result."""
    model = transformed_model(ProgramModel(program))
    counts = dict(transfer_visits=0, widest_mask_bits=0, method_pops=0)
    analyzers: list[Analyzer] = []
    transfer, method_facts = analysis.transfer, Analyzer.method_facts

    def counting_transfer(*args):
        counts["transfer_visits"] += 1
        return transfer(*args)

    def counting_method_facts(self, method_id, summaries):
        out = method_facts(self, method_id, summaries)
        counts["method_pops"] += 1
        widest = max((mask.bit_length() for mask in out.values()), default=0)
        counts["widest_mask_bits"] = max(counts["widest_mask_bits"], widest)
        if self not in analyzers:
            analyzers.append(self)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "transfer", counting_transfer)
        mp.setattr(Analyzer, "method_facts", counting_method_facts)
        result = analyze_program(model)
    assert len(analyzers) == 1
    (an,) = analyzers
    counts["methods"] = len(model.methods)
    counts["call_node_writes"] = sum(
        len(spec.nodes[nid].writes)
        for spec in map(an.spec, model.methods)
        for nid in spec.call_nodes
    )
    return counts, model, result


@pytest.fixture(scope="module")
def chains() -> list[dict[str, int]]:
    runs = []
    for n in CHAIN_SIZES:
        counts, model, result = counters(chain(n))
        assert result.st == frozenset(model.methods)
        runs.append(counts)
    return runs


@pytest.fixture(scope="module")
def censuses() -> list[dict[str, int]]:
    return [counters(census(n))[0] for n in CENSUS_SIZES]


def assert_linear(runs, counter):
    values = [run[counter] for run in runs]
    assert values[0] > 0, values
    for small, large in zip(values, values[1:]):
        assert large <= GROWTH * small, (counter, values)


COUNTERS = ("transfer_visits", "widest_mask_bits", "method_pops")
ITEM_1 = "ROADMAP item 1: callee-frame scalars end up in call-node write sets"


@pytest.mark.parametrize("counter", COUNTERS)
def test_chain_counter_grows_linearly(chains, counter):
    assert_linear(chains, counter)


@pytest.mark.parametrize("counter", COUNTERS)
def test_census_counter_grows_linearly(censuses, counter):
    assert_linear(censuses, counter)


@pytest.mark.parametrize("runs", ("chains", "censuses"))
def test_each_method_is_analyzed_once(runs, request):
    """The analysis is one callees-first pass: a re-queue or a second pass
    analyzes some method twice."""
    for counts in request.getfixturevalue(runs):
        assert counts["method_pops"] == counts["methods"], counts


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_chain_call_node_writes_grow_linearly(chains):
    assert_linear(chains, "call_node_writes")


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_census_call_node_writes_grow_linearly(censuses):
    assert_linear(censuses, "call_node_writes")


def counted_reads(counts: dict[str, int], key: str, slot):
    """A property over the slot descriptor `slot` that counts its reads."""

    def read(self):
        counts[key] += 1
        return slot.__get__(self)

    return property(read, slot.__set__)


def loop_counters(program: ast.Program) -> tuple[dict[str, int], ProgramModel]:
    """The loop layer's work on a program while `ProgramModel` judges its
    loops: O(1) dominance queries, `ast.scalar_writes` calls, and reads of
    `LoopInfo.parent` (a scan for a loop's children reads every loop's) and
    of `LoopInfo.body` (comparing nests reads both bodies)."""
    counts = dict(dominance_queries=0, scalar_writes=0, parent_reads=0, body_reads=0)
    dominates, scalar_writes = DomTree.dominates, ast.scalar_writes

    def counting_dominates(self, a, b):
        counts["dominance_queries"] += 1
        return dominates(self, a, b)

    def counting_scalar_writes(*args):
        counts["scalar_writes"] += 1
        return scalar_writes(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DomTree, "dominates", counting_dominates)
        mp.setattr(ast, "scalar_writes", counting_scalar_writes)
        for key, name in (("parent_reads", "parent"), ("body_reads", "body")):
            mp.setattr(LoopInfo, name, counted_reads(counts, key, LoopInfo.__dict__[name]))
        model = ProgramModel(program)
    return counts, model


@pytest.fixture(scope="module")
def long_methods(sequential_loops) -> list[tuple[dict[str, int], ProgramModel]]:
    return [loop_counters(load(sequential_loops(k))[0]) for k in LOOP_SIZES]


LOOP_COUNTERS = ("dominance_queries", "scalar_writes", "parent_reads", "body_reads")


@pytest.mark.parametrize("counter", LOOP_COUNTERS)
def test_long_method_counter_grows_linearly(long_methods, counter):
    assert_linear([counts for counts, _ in long_methods], counter)


def test_every_loop_of_a_long_method_is_proven(long_methods):
    for k, (_, model) in zip(LOOP_SIZES, long_methods):
        loops = model.methods["m"].loops
        assert len(loops) == k
        assert all(lm.verdict.terminates for lm in loops)


def test_generator_examines_linearly_many_call_targets():
    """Scanning every earlier method at each call site grows about fourfold
    per doubling."""
    runs = []
    satisfiable = generator._satisfiable
    for n in GEN_SIZES:
        counts = dict(call_targets_examined=0)

        def counting_satisfiable(*args):
            counts["call_targets_examined"] += 1
            return satisfiable(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(generator, "_satisfiable", counting_satisfiable)
            generate_program(0, GenParams(**dict(CENSUS, methods=n)), normalize=False)
        runs.append(counts)
    assert_linear(runs, "call_targets_examined")
