"""Shared per-program preparation: CFGs, loops, verdicts, call graph, oracles.

`ProgramModel` computes everything the divergence rewrite, the reified
interpreter, and the report agree on: per-method CFGs and loop structure,
a termination verdict per loop, the recursion set, and the divergent API
set (externs minus the safe list).

Loop verdicts are computed innermost-first. An inner loop that will be
rewritten away contributes an opaque write stand-in to its parent's cycle
extraction, which is exactly what the parent's body looks like after the
rewrite; under the default `basic` policy, a parent containing a loop that
stays live is unknown, while the `summary` policy also steps over live
dependency-free inner loops. A `while` whose body returns on every path is
no loop: it runs at most once, and its verdict is that it terminates. What
a method's loops share is built once per method with loops: the loops and
their children (`find_loops`, from what `build_cfg` recorded of each
`while`), and the single-definition constants with the numbered dominator
tree (`termination.method_consts`). Each loop then reads its own children
and the constants its body reads, so a long method's loops are judged in
time linear in the method.

The model of the rewritten program is derived from the first one (`base`).
It does not judge loops again, as the rewrite kept only loops proven to
terminate, nor check bodies, as the rewrite adds no variable: the second
alias walk validates the new bottom targets, and `build_cfg` the new bodies.
A method the rewrite returned unchanged keeps its CFG, the same object; the
others get a new one. The call graph is built from the call rows of the
alias analysis (`AliasAnalysis.calls`), which resolved each call once, in
its one walk over each body.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .aliases import AliasAnalysis
from .callgraph import CallGraph, build_call_graph, condensation_order, recursion_set
from .cfg import Cfg, LoopInfo, build_cfg, find_loops, governing_branches
from .errors import NestedLoopError, NoInductionVariable, PathExplosionError
from .interp import OracleDecisions
from .lang import ast
from .lang.check import Symbols, check as check_program
from .summaries import (
    DfVerdict,
    LoopSummary,
    classify_terms,
    cycle_formula,
    df_check,
    summarize,
)
from .termination import (
    CycleSet,
    MethodConsts,
    OpaqueUpdate,
    TerminationVerdict,
    check_termination,
    counter_strides,
    dominating_consts,
    extract_cycles,
    method_consts,
    written_names,
)

BASIC = "basic"
SUMMARY = "summary"
RUNS_AT_MOST_ONCE = TerminationVerdict(True, reason="its body returns on every path")


@dataclass(slots=True)
class LoopModel:
    info: LoopInfo  # its `while` is the CFG node `info.header`
    verdict: TerminationVerdict
    cycles: CycleSet | None = None
    df: DfVerdict | None = None
    summary: LoopSummary | None = None


@dataclass(slots=True)
class MethodModel:
    method: ast.Method
    cfg: Cfg
    loops: list[LoopModel] = field(default_factory=list)


class ProgramModel:
    def __init__(
        self,
        program: ast.Program,
        symbols: Symbols | None = None,
        safe_list: frozenset[str] = frozenset(),
        nested_policy: str = BASIC,
        aliases: AliasAnalysis | None = None,
        base: "ProgramModel | None" = None,
    ):
        """`base` is the model of the program this one was rewritten from;
        `symbols` and `aliases` must then be derived from its own."""
        self.program = program
        self.symbols = symbols or check_program(program)
        self.aliases = aliases or AliasAnalysis(program, self.symbols)
        self.safe_list = frozenset(safe_list)
        self.nested_policy = nested_policy
        externs = {m.name for m in program.methods if m.extern}
        self.api_set = frozenset(externs - self.safe_list)
        self.callgraph: CallGraph = build_call_graph(program, self.aliases.calls)
        self.recursion = recursion_set(self.callgraph)
        self.methods: dict[str, MethodModel] = {}
        self._verdict_by_stmt: dict[int, TerminationVerdict] = {}
        for m in program.methods:
            if m.extern:
                continue
            if base is None:
                mm = MethodModel(m, build_cfg(m))
                self._analyze_loops(mm)
            else:
                old = base.methods[m.id]
                mm = MethodModel(m, old.cfg if old.method is m else build_cfg(m))
            self.methods[m.id] = mm

    # -- loops ---------------------------------------------------------------

    def _analyze_loops(self, mm: MethodModel) -> None:
        g = mm.cfg
        loops = find_loops(g)
        looping = {l.header for l in loops}
        for header, _, _ in g.whiles:  # no loop: its body returns on every path, it runs at most once
            if header not in looping:
                self._verdict_by_stmt[id(g.nodes[header])] = RUNS_AT_MOST_ONCE
        if not loops:
            return
        consts = method_consts(g)
        models: dict[int, LoopModel] = {}
        # innermost first so parents can reuse child results
        for info in sorted(loops, key=lambda l: -l.depth):
            models[info.id] = self._judge_loop(g, info, loops, models, consts)
        mm.loops = [models[l.id] for l in loops]
        for lm in mm.loops:
            self._verdict_by_stmt[id(g.nodes[lm.info.header])] = lm.verdict

    def _judge_loop(
        self,
        g: Cfg,
        info: LoopInfo,
        loops: list[LoopInfo],
        models: dict[int, "LoopModel"],
        consts: MethodConsts,
    ) -> LoopModel:
        stand_ins: dict[int, OpaqueUpdate] = {}
        blocked = None
        for c in info.children:
            child = models[c]
            ch = child.info
            names = child.cycles.written_names if child.cycles else written_names(g, ch)
            if not child.verdict.terminates:
                # the rewrite will replace it with an opaque parallel assignment
                stand_ins[ch.header] = OpaqueUpdate(names)
            elif self.nested_policy == SUMMARY and child.df and child.df.dependency_free:
                stand_ins[ch.header] = OpaqueUpdate(names)
            else:
                blocked = "contains a live nested loop"
                break
        if blocked:
            return LoopModel(info, TerminationVerdict(False, reason=blocked))

        try:
            cycles = extract_cycles(info, g, loops, stand_ins)
        except (NestedLoopError, PathExplosionError) as e:
            return LoopModel(info, TerminationVerdict(False, reason=str(e)))

        pre = dominating_consts(g, info, consts)
        # each closing cycle is folded once; both verdicts read these formulas
        formulas = tuple(cycle_formula(c, pre) for c in cycles.cycles)
        counters = counter_strides(formulas)
        verdict = check_termination(cycles, formulas, counters)
        lm = LoopModel(info, verdict, cycles)
        try:
            tt = classify_terms(cycles, formulas, counters)
        except NoInductionVariable as e:
            lm.df = DfVerdict(False, 1, str(e))
            return lm
        mid = g.method_id
        lm.df = df_check(
            cycles, tt, distinct_array_parts=lambda a: self.aliases.partition_of(mid, a)
        )
        if lm.df.dependency_free:
            lm.summary = summarize(cycles, tt)
        return lm

    # -- oracle bundle ---------------------------------------------------------

    def verdict_for(self, stmt: ast.While) -> TerminationVerdict:
        return self._verdict_by_stmt.get(id(stmt), TerminationVerdict(False, reason="unknown loop"))

    def decisions(self) -> OracleDecisions:
        return OracleDecisions(
            loop_terminates={k: v.terminates for k, v in self._verdict_by_stmt.items()},
            recursion=self.recursion,
            api=self.api_set,
        )

    def analysis_order(self) -> list[str]:
        """Methods with callees before callers; in a rewritten model, which
        has no call cycle, before every caller."""
        return condensation_order(self.callgraph)

    def governing(self, method_id: str):
        return governing_branches(self.methods[method_id].cfg)

