"""Report assembly: verdicts, causes, size filters, and census statistics.

The pipeline runs parse -> CFG/loops -> call graph -> oracles -> divergence
rewrite -> interprocedural analysis, then assembles per-method verdicts and
aggregate percentages. Getters and setters can be filtered out of the
percentages (they are trivially sub-Turing by construction), as can methods
below a size threshold; the instruction unit is the AST statement count.

The verification-condition census counts syntactic array accesses and field
dereferences on the original program and how many of them fall inside
sub-Turing methods: those checks can be discharged by a decision procedure.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .aliases import AliasAnalysis
from .analysis import AnalysisResult, analyze_program
from .lang import ast
from .lang.check import Symbols, check as check_program
from .pipeline import BASIC, ProgramModel
from .rewrite import rewrite_program


@dataclass(frozen=True)
class ReportConfig:
    safe_list: frozenset[str] = frozenset()
    min_instructions: int = 30
    exclude_accessors: bool = True
    swamp_test: str = "pre"  # or "post"
    format: str = "text"  # or "json"
    nested_policy: str = BASIC


@dataclass
class MethodReport:
    name: str
    verdict: str  # "sub_turing" | "swamp"
    causes: list[str]
    instructions: int
    accessor: bool
    vc_array: int
    vc_field: int
    loops: list[dict]


@dataclass
class Report:
    methods: list[MethodReport]
    aggregates: dict
    config: dict
    timing_ms: float
    result: AnalysisResult = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {
            "methods": [vars(m).copy() for m in self.methods],
            "aggregates": self.aggregates,
            "config": self.config,
            "timing_ms": self.timing_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        agg = self.aggregates
        for m in self.methods:
            mark = "island" if m.verdict == "sub_turing" else "swamp "
            causes = f" [{', '.join(m.causes)}]" if m.causes else ""
            lines.append(f"{mark}  {m.name}  ({m.instructions} instructions){causes}")
            for l in m.loops:
                lines.append(f"          loop@{l['line']}: {l['verdict']}")
        lines.append("")
        lines.append(f"methods analyzed: {agg['method_count']}")
        lines.append(
            f"sub-Turing: {agg['st_count']}   swamp: {agg['swamp_count']}"
        )
        if agg["pct_st"] is not None:
            lines.append(f"%ST (after accessor filter): {agg['pct_st']:.1f}")
        if agg["pct_st_nontrivial"] is not None:
            lines.append(f"%ST (non-trivial): {agg['pct_st_nontrivial']:.1f}")
        bd = agg["cause_breakdown"]
        if bd:
            parts = ", ".join(f"{k}: {v:.1f}%" for k, v in sorted(bd.items()))
            lines.append(f"divergence causes: {parts}")
        lines.append(
            f"loops: {agg['loops_total']} total, {agg['loops_terminating']} proven terminating"
        )
        lines.append(
            f"verification conditions: {agg['vc_total']} total, "
            f"{agg['vc_on_islands']} on islands"
        )
        lines.append(f"analysis time: {self.timing_ms:.1f} ms")
        return "\n".join(lines)


def accessor_filter(m: ast.Method) -> bool:
    """True for getter/setter shapes: a returned field read, or a single
    field write followed by a return."""
    if m.extern or len(m.body) != 2 or not isinstance(m.body[1], ast.Return):
        return False
    first, ret = m.body
    if isinstance(first, ast.FieldRead):
        return ret.value == first.target
    return isinstance(first, ast.FieldWrite)


def vc_sites(m: ast.Method) -> tuple[int, int]:
    """(array accesses, field dereferences) in a method body."""
    arrays = fields = 0
    for s in ast.walk(m.body):
        if isinstance(s, (ast.ArrayRead, ast.ArrayWrite)):
            arrays += 1
        elif isinstance(s, (ast.FieldRead, ast.FieldWrite)):
            fields += 1
    return arrays, fields


def vc_census(program: ast.Program, st: frozenset[str]) -> tuple[int, int]:
    """Total dereference sites and how many sit inside sub-Turing methods."""
    total = on_islands = 0
    for m in program.methods:
        if m.extern:
            continue
        a, f = vc_sites(m)
        total += a + f
        if m.id in st:
            on_islands += a + f
    return total, on_islands


def transformed_model(model: ProgramModel) -> ProgramModel:
    """Rewrite divergence and wrap the result for analysis, keeping the
    original partition numbering the baked-in representatives refer to."""
    p2 = rewrite_program(model)
    sym2 = check_program(p2, allow_bottom=True)
    al2 = AliasAnalysis(p2, sym2, partitions_from=model.aliases)
    return ProgramModel(p2, sym2, safe_list=model.safe_list, aliases=al2, with_loops=False)


def analyze_sources(
    program: ast.Program,
    symbols: Symbols,
    cfg: ReportConfig,
) -> Report:
    model = ProgramModel(
        program, symbols, safe_list=cfg.safe_list, nested_policy=cfg.nested_policy
    )
    tmodel = transformed_model(model)
    t0 = time.perf_counter()
    result = analyze_program(tmodel, swamp_test=cfg.swamp_test)
    timing_ms = (time.perf_counter() - t0) * 1000.0
    return build_report(model, result, cfg, timing_ms)


def build_report(
    model: ProgramModel, result: AnalysisResult, cfg: ReportConfig, timing_ms: float
) -> Report:
    methods: list[MethodReport] = []
    loops_total = loops_term = 0
    for m in model.program.methods:
        if m.extern:
            continue
        mm = model.methods[m.id]
        loops = []
        for lm in mm.loops:
            loops.append(
                {
                    "line": lm.stmt.loc.line if lm.stmt is not None else None,
                    "verdict": lm.verdict.render(),
                    "terminates": lm.verdict.terminates,
                    "dependency_free": bool(lm.df and lm.df.dependency_free),
                }
            )
            loops_total += 1
            loops_term += int(lm.verdict.terminates)
        a, f = vc_sites(m)
        causes = sorted(c.value for c in result.causes.get(m.id, ()))
        methods.append(
            MethodReport(
                name=m.id,
                verdict="sub_turing" if m.id in result.st else "swamp",
                causes=causes,
                instructions=ast.instruction_count(m.body),
                accessor=accessor_filter(m),
                vc_array=a,
                vc_field=f,
                loops=loops,
            )
        )

    universe = [m for m in methods]
    if cfg.exclude_accessors:
        universe = [m for m in universe if not m.accessor]
    nontrivial = [m for m in universe if m.instructions >= cfg.min_instructions]

    def pct(rows: list[MethodReport]) -> float | None:
        if not rows:
            return None
        return 100.0 * sum(1 for m in rows if m.verdict == "sub_turing") / len(rows)

    occurrences: dict[str, int] = {}
    for m in methods:
        if m.verdict == "swamp":
            for c in m.causes:
                occurrences[c] = occurrences.get(c, 0) + 1
    total_occ = sum(occurrences.values())
    breakdown = (
        {c: 100.0 * k / total_occ for c, k in occurrences.items()} if total_occ else {}
    )

    vc_total, vc_islands = vc_census(model.program, result.st)
    aggregates = {
        "method_count": len(methods),
        "st_count": sum(1 for m in methods if m.verdict == "sub_turing"),
        "swamp_count": sum(1 for m in methods if m.verdict == "swamp"),
        "pct_st": pct(universe),
        "pct_st_nontrivial": pct(nontrivial),
        "cause_breakdown": breakdown,
        "loops_total": loops_total,
        "loops_terminating": loops_term,
        "vc_total": vc_total,
        "vc_on_islands": vc_islands,
    }
    config = {
        "safe_list": sorted(cfg.safe_list),
        "min_instructions": cfg.min_instructions,
        "exclude_accessors": cfg.exclude_accessors,
        "swamp_test": cfg.swamp_test,
        "nested_policy": cfg.nested_policy,
    }
    return Report(methods, aggregates, config, timing_ms, result)


def load_safe_list(path: str) -> frozenset[str]:
    """Newline-separated method names; `#` starts a comment."""
    names: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = line.split("#", 1)[0].strip()
            if entry:
                names.add(entry)
    return frozenset(names)
