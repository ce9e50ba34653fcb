"""No search of a CFG, one alias walk per method body.

`build_cfg` records each node's dominator and post-dominator, each `while`'s
loop, and the order of its own numbering while it builds the graph; the
dominator tree, the loops and the dependence analysis read them from the
`Cfg`, so no search of the graph runs. Only the functions that read the
edges of the nodes they visit read a graph's edge lists, and the order is
the build's numbering. The alias analysis walks each body once for its
partition joins, write targets and call row, and the analysis of a
rewritten program walks only the methods the rewrite changed. Both are
counted over one run of what `cook analyze` does, on programs of the
benchmark's generator profiles: `census` as benchmarked, `islands` cut to 20
methods, and the loop-dense programs of the `loops` workload under its
`summary` policy.

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
from profiles import CENSUS, ISLANDS, LOOP_DENSE

ISLANDS = dict(ISLANDS, methods=20)
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


def counted_reads(readers: Counter, slot):
    """A property over the slot descriptor `slot` that counts its reads by
    the name of the reading function."""

    def read(self):
        readers[sys._getframe(1).f_code.co_name] += 1
        return slot.__get__(self)

    return property(read, slot.__set__)


def analyze(params: dict, seed: int, policy: str):
    """`cook analyze` on a generated program. Returns the CFGs it built, the
    functions that read a CFG's edge lists (`Cfg.succs`, `Cfg.preds`) with
    their reads, per alias analysis the analysis, its `base` and the bodies
    it walked, and the report."""
    program = generate_program(seed, GenParams(**params))
    symbols = check(program)
    built: list[cfg.Cfg] = []
    readers: Counter = Counter()
    analyses: list[tuple[aliases.AliasAnalysis, object, Counter]] = []
    build, walk = cfg.build_cfg, ast.walk
    init = aliases.AliasAnalysis.__init__

    def counting_build(m):
        g = build(m)
        built.append(g)
        return g

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
        for name in ("succs", "preds"):
            mp.setattr(cfg.Cfg, name, counted_reads(readers, cfg.Cfg.__dict__[name]))
        mp.setattr(aliases.AliasAnalysis, "__init__", counting_init)
        report = analyze_sources(program, symbols, ReportConfig(nested_policy=policy))
    return built, readers, analyses, report


def bodies(methods) -> Counter:
    return Counter(id(m.body) for m in methods if not m.extern)


# the functions that read a CFG's edge lists, each the rows of the nodes it
# visits: the build, control dependence, the fixpoint's wake lists and joins,
# and the oracle's cycle extraction
EDGE_READERS = {"build_cfg", "_direct_masks", "spec", "method_facts", "extract_cycles"}


@pytest.mark.parametrize("params, seed, policy", CASES)
def test_one_forward_order_per_cfg_and_one_walk_per_body(params, seed, policy):
    built, readers, analyses, report = analyze(params, seed, policy)
    assert built
    assert readers["method_facts"]  # the counters count
    assert set(readers) <= EDGE_READERS, readers
    for g in built:
        assert g.order == [g.entry, *range(2, len(g.nodes)), g.exit]

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
