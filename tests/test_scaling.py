"""Work counters that must grow linearly with the program, on call chains.

A chain of `n` methods has `m{k}` call `m{k+1}` and the last one return its
formal: no loops, no APIs, every method an island. Doubling the chain may
at most double each counter, with a little slack; a counter that grows
faster is a quadratic cost on long call chains. Nothing is timed.
"""

from __future__ import annotations

import pytest

from cook import analysis
from cook.analysis import Analyzer, analyze_program
from cook.lang import load
from cook.pipeline import ProgramModel
from cook.report import transformed_model

SIZES = (250, 500, 1000)
GROWTH = 2.2  # the most a counter may grow when the chain doubles


def chain(n: int) -> str:
    calls = [
        f"method m{k}(a: int): int {{ var x: int; x := m{k + 1}(a); return x; }}\n"
        for k in range(n - 1)
    ]
    return "".join(calls) + f"method m{n - 1}(a: int): int {{ return a; }}\n"


def counters(n: int) -> dict[str, int]:
    """The analysis's work on a chain of `n` methods."""
    model = transformed_model(ProgramModel(*load(chain(n))))
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
    assert result.st == frozenset(model.methods) and len(analyzers) == 1
    (an,) = analyzers
    counts["call_node_writes"] = sum(
        len(spec.nodes[nid].writes)
        for spec in map(an.spec, model.methods)
        for nid in spec.call_nodes
    )
    return counts


@pytest.fixture(scope="module")
def measured() -> dict[int, dict[str, int]]:
    return {n: counters(n) for n in SIZES}


def assert_linear(measured, counter):
    values = [measured[n][counter] for n in SIZES]
    assert values[0] > 0, values
    for small, large in zip(values, values[1:]):
        assert large <= GROWTH * small, (counter, values)


@pytest.mark.parametrize("counter", ("transfer_visits", "widest_mask_bits", "method_pops"))
def test_chain_counter_grows_linearly(measured, counter):
    assert_linear(measured, counter)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: callee-frame scalars end up in call-node write sets",
)
def test_chain_call_node_writes_grow_linearly(measured):
    assert_linear(measured, "call_node_writes")
