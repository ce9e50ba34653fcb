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
dependency-free inner loops.
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
    OpaqueUpdate,
    TerminationVerdict,
    _written_names,
    check_termination,
    dominating_consts,
    extract_cycles,
)

BASIC = "basic"
SUMMARY = "summary"


@dataclass(slots=True)
class LoopModel:
    info: LoopInfo
    stmt: ast.While | None
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
        with_loops: bool = True,
    ):
        self.program = program
        self.symbols = symbols or check_program(program)
        self.aliases = aliases or AliasAnalysis(program, self.symbols)
        self.safe_list = frozenset(safe_list)
        self.nested_policy = nested_policy
        externs = {m.name for m in program.methods if m.extern}
        self.api_set = frozenset(externs - self.safe_list)
        self.callgraph: CallGraph = build_call_graph(program, self.symbols)
        self.recursion = recursion_set(self.callgraph)
        self.methods: dict[str, MethodModel] = {}
        self._verdict_by_stmt: dict[int, TerminationVerdict] = {}
        for m in program.methods:
            if m.extern:
                continue
            mm = MethodModel(m, build_cfg(m))
            if with_loops:
                self._analyze_loops(mm)
            self.methods[m.id] = mm

    # -- loops ---------------------------------------------------------------

    def _analyze_loops(self, mm: MethodModel) -> None:
        g = mm.cfg
        loops = find_loops(g)
        by_id = {l.id: l for l in loops}
        verdicts: dict[int, TerminationVerdict] = {}
        models: dict[int, LoopModel] = {}
        # innermost first so parents can reuse child results
        for info in sorted(loops, key=lambda l: -l.depth):
            lm = self._judge_loop(mm, g, info, by_id, models)
            models[info.id] = lm
            verdicts[info.id] = lm.verdict
        mm.loops = [models[l.id] for l in loops]
        for lm in mm.loops:
            if lm.stmt is not None:
                self._verdict_by_stmt[id(lm.stmt)] = lm.verdict

    def _judge_loop(
        self,
        mm: MethodModel,
        g: Cfg,
        info: LoopInfo,
        by_id: dict[int, LoopInfo],
        models: dict[int, "LoopModel"],
    ) -> LoopModel:
        stmt = info.stmt if isinstance(info.stmt, ast.While) else None
        children = [l for l in by_id.values() if l.parent == info.id]
        stand_ins: dict[int, OpaqueUpdate] = {}
        blocked = None
        for ch in children:
            child = models[ch.id]
            names = child.cycles.written_names if child.cycles else _written_names(ch, g, {})
            if not child.verdict.terminates:
                # the rewrite will replace it with an opaque parallel assignment
                stand_ins[ch.header] = OpaqueUpdate(names)
            elif self.nested_policy == SUMMARY and child.df and child.df.dependency_free:
                stand_ins[ch.header] = OpaqueUpdate(names)
            else:
                blocked = "contains a live nested loop"
                break
        if blocked:
            return LoopModel(info, stmt, TerminationVerdict(False, reason=blocked))

        try:
            cycles = extract_cycles(info, g, list(by_id.values()), stand_ins)
        except (NestedLoopError, PathExplosionError) as e:
            return LoopModel(info, stmt, TerminationVerdict(False, reason=str(e)))

        pre = dominating_consts(g, info)
        # each closing cycle is folded once; both verdicts read these formulas
        formulas = tuple(cycle_formula(c, pre, g.method_id) for c in cycles.cycles)
        verdict = check_termination(cycles, formulas)
        lm = LoopModel(info, stmt, verdict, cycles)
        try:
            tt = classify_terms(cycles, formulas)
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
        """Methods with callees before callers, so first passes see summaries."""
        return condensation_order(self.callgraph)

    def governing(self, method_id: str):
        return governing_branches(self.methods[method_id].cfg)

