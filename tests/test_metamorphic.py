"""Metamorphic checks on verdicts: edits of a program whose effect on the
report is known without an oracle (Chen et al. 1998; Segura et al. 2016).

* Adding names to the safe list never moves a method from island to swamp.
* Appending a method that nobody calls changes no other method's verdict.
* Reordering the method declarations changes no verdict.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from cook.generator import GenParams, generate_program
from cook.lang import ast, check
from cook.report import ReportConfig, analyze_sources

# islands and swamp both: 14 of the 72 methods of these seeds are islands
PARAMS = GenParams(
    methods=6, stmts=(3, 6), loop=0.3, opaque_loop=0.05, recursion=0.03, extern=0.1, call=0.3
)
SEEDS = range(12)

# divergent by itself: the oracle cannot bound a loop whose counter never moves
UNCALLED = ast.Method(
    "never_called",
    None,
    (ast.Param("n", ast.INT),),
    (ast.Param("i", ast.INT),),
    ast.INT,
    (
        ast.ConstAssign("i", 0),
        ast.While(ast.Cond("i", "<", "n"), (ast.CopyAssign("i", "i"),)),
        ast.Return("i"),
    ),
)


def verdicts(program: ast.Program, safe=frozenset(), policy="basic") -> dict[str, tuple]:
    config = ReportConfig(safe_list=frozenset(safe), nested_policy=policy)
    report = analyze_sources(program, check(program), config)
    return {m.name: (m.verdict, tuple(m.causes)) for m in report.methods}


def islands(v: dict[str, tuple]) -> set[str]:
    return {name for name, (verdict, _) in v.items() if verdict == "sub_turing"}


def test_a_larger_safe_list_never_shrinks_the_islands():
    grew = 0
    for seed in SEEDS:
        p = generate_program(seed, PARAMS)
        externs = [m.name for m in p.methods if m.extern]
        before = islands(verdicts(p))
        for k in range(1, len(externs) + 1):
            after = islands(verdicts(p, {"not_a_method", *externs[:k]}))
            assert before <= after, (seed, externs[:k], before - after)
            grew += len(after - before)
            before = after
    assert grew > 0  # the safe list does move methods in this corpus


@pytest.mark.parametrize("policy", ["basic", "summary"])
def test_an_uncalled_method_changes_no_other_verdict(policy):
    for seed in SEEDS:
        p = generate_program(seed, PARAMS)
        internal = [m for m in p.methods if not m.extern]
        clone = dataclasses.replace(random.Random(seed).choice(internal), name="clone_never_called")
        before = verdicts(p, policy=policy)
        after = verdicts(
            dataclasses.replace(p, methods=p.methods + (UNCALLED, clone)), policy=policy
        )
        assert after.pop("never_called")[0] == "swamp"
        after.pop(clone.id)
        assert after == before, seed


@pytest.mark.parametrize("policy", ["basic", "summary"])
def test_reordering_methods_changes_no_verdict(policy):
    for seed in SEEDS:
        p = generate_program(seed, PARAMS)
        before = verdicts(p, policy=policy)
        for order in range(1, 3):
            methods = list(p.methods)
            random.Random(order).shuffle(methods)
            shuffled = dataclasses.replace(p, methods=tuple(methods))
            assert verdicts(shuffled, policy=policy) == before, (seed, order)
