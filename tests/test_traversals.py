"""One search per CFG, one alias walk per method body.

`build_cfg` computes each graph's reverse postorder from entry once and keeps
it on the `Cfg`; the loop finder, the dominator tree and the dependence
analysis read it from there. It records each node's dominator and
post-dominator while it builds the graph, so no other search of the graph
runs. The alias analysis walks each body once for its partition joins, write
targets and call row, and the analysis of a rewritten program walks only the
methods the rewrite changed. Both are counted over one run of what
`cook analyze` does, on programs of the benchmark's generator profiles:
`census` as benchmarked, `islands` cut to 20 methods, and the loop-dense
programs of the `loops` workload under its `summary` policy.

The report reads each method's statement, array and field counts off the
original model's CFG, where every statement is one node besides entry and
exit, instead of walking the body again; the same run holds them to a walk.
The dependence analysis numbers each method's scalars as one block of ids
and looks them up by name, so it hashes and compares no `Scalar`.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from cook import aliases, cfg
from cook.analysis import analyze_program
from cook.generator import GenParams, generate_program
from cook.lang import ast
from cook.lang.check import check
from cook.pipeline import ProgramModel
from cook.report import ReportConfig, analyze_sources, transformed_model
from cook.representatives import Scalar

CENSUS = dict(
    methods=16, classes=2, loop=0.2, opaque_loop=0.05, recursion=0.03, extern=0.08, call=0.3
)
ISLANDS = dict(
    methods=20, classes=4, loop=0.15, opaque_loop=0, recursion=0, extern=0, heap=0.6,
    virtual=0.5, max_depth=1,
)
LOOP_DENSE = dict(methods=3, stmts=(1, 3), loop=0.7, opaque_loop=0.1, max_depth=2, call=0.1)
CASES = [
    pytest.param(params, seed, policy, id=f"{name}-{seed}")
    for name, params, policy, seeds in (
        ("census", CENSUS, "basic", range(3)),
        ("islands", ISLANDS, "basic", range(3)),
        ("loops", LOOP_DENSE, "summary", range(6)),
    )
    for seed in seeds
]


def patch_everywhere(mp: pytest.MonkeyPatch, fn, wrapper) -> None:
    """Replace `fn` in every `cook` module that binds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cook" and getattr(module, fn.__name__, None) is fn:
            mp.setattr(module, fn.__name__, wrapper)


def analyze(params: dict, seed: int, policy: str):
    """`cook analyze` on a generated program. Returns the CFGs it built, its
    `reverse_postorder` calls by (successor lists, start), per alias
    analysis the analysis, its `base` and the bodies it walked, and the
    report."""
    program = generate_program(seed, GenParams(**params))
    symbols = check(program)
    built: list[cfg.Cfg] = []
    searches: Counter = Counter()
    analyses: list[tuple[aliases.AliasAnalysis, object, Counter]] = []
    build, rpo, walk = cfg.build_cfg, cfg.reverse_postorder, ast.walk
    init = aliases.AliasAnalysis.__init__

    def counting_build(m):
        g = build(m)
        built.append(g)
        return g

    def counting_rpo(start, succs):
        searches[id(succs), start] += 1
        return rpo(start, succs)

    def counting_init(self, program, symbols, base=None):
        walked: Counter = Counter()

        def counting_walk(body):
            walked[id(body)] += 1
            return walk(body)

        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(ast, "walk", counting_walk)
            init(self, program, symbols, base)
        analyses.append((self, base, walked))

    with pytest.MonkeyPatch.context() as mp:
        patch_everywhere(mp, build, counting_build)
        patch_everywhere(mp, rpo, counting_rpo)
        mp.setattr(aliases.AliasAnalysis, "__init__", counting_init)
        report = analyze_sources(program, symbols, ReportConfig(nested_policy=policy))
    return built, searches, analyses, report


def bodies(methods) -> Counter:
    return Counter(id(m.body) for m in methods if not m.extern)


@pytest.mark.parametrize("params, seed, policy", CASES)
def test_one_forward_order_per_cfg_and_one_walk_per_body(params, seed, policy):
    built, searches, analyses, report = analyze(params, seed, policy)
    assert built
    assert [searches.pop((id(g.succs), g.entry), 0) for g in built] == [1] * len(built)
    assert searches == Counter()

    (first, no_base, walked), (second, base, rewalked) = analyses
    assert no_base is None and base is first
    assert walked == bodies(first.program.methods)
    rewritten = [m for m in second.program.methods if first.sym.methods.get(m.id) is not m]
    assert rewalked == bodies(rewritten)

    for row in report.methods:
        kinds = [type(s) for s in ast.walk(first.sym.methods[row.name].body)]
        arrays = sum(k is ast.ArrayRead or k is ast.ArrayWrite for k in kinds)
        fields = sum(k is ast.FieldRead or k is ast.FieldWrite for k in kinds)
        assert (row.instructions, row.vc_array, row.vc_field) == (len(kinds), arrays, fields)


@pytest.mark.parametrize("params", (CENSUS, ISLANDS), ids=("census", "islands"))
def test_the_analysis_hashes_and_compares_no_scalar(params):
    program = generate_program(0, GenParams(**params))
    tmodel = transformed_model(ProgramModel(program, check(program)))
    calls: Counter = Counter()
    hash_, eq = Scalar.__hash__, Scalar.__eq__

    def counting_hash(self):
        calls["__hash__"] += 1
        return hash_(self)

    def counting_eq(self, other):
        calls["__eq__"] += 1
        return eq(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scalar, "__hash__", counting_hash)
        mp.setattr(Scalar, "__eq__", counting_eq)
        hash(Scalar("m", "x"))
        assert calls.pop("__hash__") == 1  # the counters count
        result = analyze_program(tmodel)
    assert result.st | result.swamp == set(tmodel.methods)
    assert calls == Counter()
