"""Work counters that must grow linearly with the program.

These shapes of program are grown:

* call chains: `m{k}` calls `m{k+1}` and the last one returns its formal; no
  loops, no APIs, every method an island;
* census-profile programs (the benchmark's `census` profile, generator seed
  0) of 125, 250 and 500 methods, with loops, APIs and recursion; some of
  their methods are in the swamp;
* one method of 250, 500 and 1000 sequential counted loops, each with fresh
  names, whose loops `ProgramModel` judges and whose fixpoint sweeps each
  loop's range until it is stable;
* census-profile programs of 250, 500 and 1000 methods as the generator
  builds them, counting the methods it examines as call targets;
* interface chains of 100, 200 and 400 interfaces, with 50 or 100
  assignments of a class to the first, and class chains of 100, 200 and 400
  classes, with 10 or 20 virtual calls on the first class and as many field
  reads through the last, counting the hierarchy steps `check` and
  `resolve_call` take;
* class chains of 100, 200 and 400 classes with one field each, an `int`
  or one of the class's own type, counting the classes `reachable_lvalues`
  visits for a reference of the first and the runtime classes it
  enumerates.

Doubling the program may at most double each counter, with a little slack;
a counter that grows faster is a quadratic cost on large programs. A
hierarchy is recorded once, so more assignments or calls on the same
hierarchy take no more hierarchy steps at all. Nothing is timed.
"""

from __future__ import annotations

import pytest

from cook import analysis, generator
from cook.aliases import AliasAnalysis
from cook.analysis import AnalysisResult, Analyzer, analyze_program
from cook.cfg import DomTree, LoopInfo
from cook.generator import GenParams, generate_program
from cook.lang import ast, load, parse_unit
from cook.lang.check import check
from cook.pipeline import ProgramModel
from cook.report import transformed_model
from profiles import CENSUS

CHAIN_SIZES = (250, 500, 1000)
CENSUS_SIZES = (125, 250, 500)
LOOP_SIZES = (250, 500, 1000)
GEN_SIZES = (250, 500, 1000)
DEPTHS = (100, 200, 400)
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
    """The analysis's work on a program, the model it ran on, and its result.
    `call_node_rows` counts what the rows that `analyze_program` builds at
    call nodes hold: their writes and the callee summary entries they
    compose."""
    model = transformed_model(ProgramModel(program))
    counts = dict(transfer_visits=0, widest_mask_bits=0, method_pops=0, call_node_rows=0)
    analyzers: list[Analyzer] = []
    transfer, method_facts, node_spec = analysis.transfer, Analyzer.method_facts, analysis.node_spec

    def counting_transfer(*args):
        counts["transfer_visits"] += 1
        return transfer(*args)

    def counting_node_spec(s, method_id, an, fr, summaries):
        ns = node_spec(s, method_id, an, fr, summaries)
        if type(s) is ast.Call:
            targets = an.sym.resolve_call(an.sym.methods[method_id], s)
            entries = sum(len(summaries[t.id]) for t in targets if not t.extern)
            counts["call_node_rows"] += len(ns.writes) + entries
        return ns

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
        mp.setattr(analysis, "node_spec", counting_node_spec)
        mp.setattr(Analyzer, "method_facts", counting_method_facts)
        result = analyze_program(model)
    assert len(analyzers) == 1
    (an,) = analyzers
    counts["methods"] = len(model.methods)
    empty = dict.fromkeys(model.methods, {})  # a node's writes need no summary
    counts["call_node_writes"] = sum(
        len(ns.writes)
        for mid, mm in model.methods.items()
        for s, ns in zip(mm.cfg.nodes, an.spec(mid, empty).nodes)
        if type(s) is ast.Call
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


COUNTERS = ("transfer_visits", "widest_mask_bits", "method_pops", "call_node_rows")


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


def test_chain_call_node_writes_grow_linearly(chains):
    assert_linear(chains, "call_node_writes")


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
    """Per size, the loop layer's counters with the fixpoint's
    `transfer_visits`, and the model."""
    runs = []
    for k in LOOP_SIZES:
        program = load(sequential_loops(k))[0]
        counts, model = loop_counters(program)
        counts["transfer_visits"] = counters(program)[0]["transfer_visits"]
        runs.append((counts, model))
    return runs


LOOP_COUNTERS = (
    "dominance_queries",
    "scalar_writes",
    "parent_reads",
    "body_reads",
    "transfer_visits",
)


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


def hierarchy_steps(src: str) -> int:
    """The chain links and extends edges `check` visits on a program, and
    `resolve_call` on each of its call sites: reads of `ClassDecl.superclass`,
    `ClassDecl.interfaces` and `InterfaceDecl.extends`."""
    program = parse_unit(src)
    counts = dict(steps=0)
    with pytest.MonkeyPatch.context() as mp:
        for decl, name in (
            (ast.ClassDecl, "superclass"),
            (ast.ClassDecl, "interfaces"),
            (ast.InterfaceDecl, "extends"),
        ):
            mp.setattr(decl, name, counted_reads(counts, "steps", decl.__dict__[name]))
        sym = check(program)
        for m in program.methods:
            for s in ast.walk(m.body):
                if type(s) is ast.Call:
                    sym.resolve_call(m, s)
    return counts["steps"]


@pytest.fixture(scope="module")
def hierarchies(interface_chain, class_chain) -> dict[str, list[tuple[int, int]]]:
    """Per shape and depth, the hierarchy steps with the fewer and with twice
    as many assignments or calls."""
    return {
        "interfaces": [
            (hierarchy_steps(interface_chain(d, 50)), hierarchy_steps(interface_chain(d, 100)))
            for d in DEPTHS
        ],
        "classes": [
            (hierarchy_steps(class_chain(d, 10, 10)), hierarchy_steps(class_chain(d, 20, 20)))
            for d in DEPTHS
        ],
    }


@pytest.mark.parametrize("shape", ("interfaces", "classes"))
def test_more_queries_on_one_hierarchy_take_no_more_steps(hierarchies, shape):
    for fewer, more in hierarchies[shape]:
        assert more == fewer, hierarchies[shape]


@pytest.mark.parametrize("shape", ("interfaces", "classes"))
def test_hierarchy_steps_grow_linearly_with_depth(hierarchies, shape):
    assert_linear([{"steps": more} for _, more in hierarchies[shape]], "steps")


def field_chain(depth: int, self_typed: bool) -> str:
    """Classes `C0` to `C{depth-1}`, each extending the one before and
    declaring one field, an `int` or one of its own type, and a method that
    passes a `C0` to an API."""
    types = [f"C{k}" if self_typed else "int" for k in range(depth)]
    classes = "".join(f"class C{k} extends C{k - 1} {{ f{k}: {types[k]}; }}\n" for k in range(1, depth))
    return (
        f"class C0 {{ f0: {types[0]}; }}\n{classes}extern method api(o: C0): int;\n"
        "method use(o: C0): int {\n  var x: int;\n  x := api(o);\n  return x;\n}\n"
    )


class CountedList(list):
    """A list that counts the items its reads return, a slice's each."""

    def __init__(self, items, counts: dict[str, int], key: str):
        super().__init__(items)
        self.counts, self.key = counts, key

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.counts[self.key] += len(got) if isinstance(i, slice) else 1
        return got


def rlv_steps(depth: int, self_typed: bool) -> dict[str, int]:
    """While `reachable_lvalues` gathers the fields a `C0` of a field chain
    reaches: the reads of `ClassDecl.fields` and `ClassDecl.superclass`, and
    the runtime classes it enumerates, as items read from `Symbols.preorder`."""
    program, sym = load(field_chain(depth, self_typed))
    aliases = AliasAnalysis(program, sym)
    counts = dict(classes_visited=0, runtime_classes=0)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("fields", "superclass"):
            slot = ast.ClassDecl.__dict__[name]
            mp.setattr(ast.ClassDecl, name, counted_reads(counts, "classes_visited", slot))
        mp.setattr(sym, "preorder", CountedList(sym.preorder, counts, "runtime_classes"))
        reached = aliases.reachable_lvalues("use", "o")
    assert len(reached) == depth
    return counts


def test_reachable_lvalues_visit_each_class_of_a_chain_once():
    for self_typed in (False, True):
        runs = [rlv_steps(d, self_typed) for d in DEPTHS]
        for counter in ("classes_visited", "runtime_classes"):
            assert_linear(runs, counter)
