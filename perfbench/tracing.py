"""Spans around the public functions of each `cook` layer.

Wrappers are installed in the namespaces that make the calls: `from .cfg
import build_cfg` binds the name inside `cook.pipeline`, so the wrapper
replaces `cook.pipeline.build_cfg`, not `cook.cfg.build_cfg`. `Analyzer.spec`
and `Analyzer.method_facts` are wrapped on the class. Spans are kept in
memory as (name, start, end, parent) and written out by the caller when the
run ends. A layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# (module under cook, attribute, span name); a span belongs to the entry of
# LAYERS its name starts with, so each layer is named after the module that
# does the work
WRAPPED = (
    ("lang", "parse_unit", "lang.parse.parse_unit"),
    ("lang", "check", "lang.check.check"),
    ("report", "check_program", "lang.check.check"),
    ("report", "analyze_sources", "report.analyze_sources"),
    ("report", "transformed_model", "pipeline.transformed_model"),
    ("report", "ProgramModel", "pipeline.ProgramModel"),
    ("report", "rewrite_program", "rewrite.rewrite_program"),
    ("report", "AliasAnalysis", "aliases.AliasAnalysis"),
    ("report", "analyze_program", "analysis.analyze_program"),
    ("report", "build_report", "report.build_report"),
    ("pipeline", "AliasAnalysis", "aliases.AliasAnalysis"),
    ("pipeline", "build_call_graph", "callgraph.build_call_graph"),
    ("pipeline", "recursion_set", "callgraph.recursion_set"),
    ("pipeline", "condensation_order", "callgraph.condensation_order"),
    ("pipeline", "build_cfg", "cfg.build_cfg"),
    ("pipeline", "find_loops", "cfg.find_loops"),
    ("pipeline", "governing_branches", "cfg.governing_branches"),
    ("pipeline", "extract_cycles", "termination.extract_cycles"),
    ("pipeline", "dominating_consts", "termination.dominating_consts"),
    ("pipeline", "check_termination", "termination.check_termination"),
    ("pipeline", "classify_terms", "summaries.classify_terms"),
    ("pipeline", "df_check", "summaries.df_check"),
    ("pipeline", "summarize", "summaries.summarize"),
)
WRAPPED_METHODS = (
    ("analysis", "Analyzer", "spec", "analysis.Analyzer.spec"),
    ("analysis", "Analyzer", "method_facts", "analysis.Analyzer.method_facts"),
    ("report", "Report", "to_json", "report.Report.to_json"),
)
LAYERS = (
    "lang.parse",
    "lang.check",
    "pipeline",
    "aliases",
    "callgraph",
    "cfg",
    "termination",
    "summaries",
    "rewrite",
    "analysis",
    "report",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name.startswith(layer + "."):
            return layer
    raise ValueError(span_name)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self, cook):
        self.cook = cook
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_result):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _hooks(self):
        c = self.counts
        ast = self.cook.lang.ast

        def bottom_sites(program):
            c["rewrite.bottom_sites"] += sum(
                isinstance(s, ast.BottomAssign) for m in program.methods for s in ast.walk(m.body)
            )

        def facts(result):
            sizes = [len(f) for f in result.facts.values()]
            c["analysis.facts"] += sum(sizes)
            c["analysis.facts_max"] = max([c["analysis.facts_max"], *sizes])
            c["analysis.summary_facts"] += sum(len(f) for f in result.summaries.values())

        return {
            "cfg.build_cfg": lambda g: c.update({"cfg.nodes": len(g.nodes)}),
            "cfg.find_loops": lambda loops: c.update({"cfg.loops": len(loops)}),
            "termination.dominating_consts": lambda _: c.update({"termination.judged": 1}),
            "termination.check_termination": lambda v: c.update(
                {"termination.proven": int(v.terminates)}
            ),
            "summaries.summarize": lambda _: c.update({"summaries.summarized": 1}),
            "callgraph.build_call_graph": lambda g: c.update({"callgraph.edges": len(g.edges)}),
            "callgraph.recursion_set": lambda r: c.update({"callgraph.recursive": len(r)}),
            "rewrite.rewrite_program": bottom_sites,
            "analysis.analyze_program": facts,
            "analysis.Analyzer.method_facts": lambda _: c.update({"analysis.pops": 1}),
        }

    def install(self) -> None:
        hooks = self._hooks()
        for module, attr, name in WRAPPED:
            self._patch(getattr(self.cook, module), attr, name, hooks.get(name))
        for module, cls, attr, name in WRAPPED_METHODS:
            self._patch(getattr(getattr(self.cook, module), cls), attr, name, hooks.get(name))

    def _patch(self, owner, attr: str, name: str, on_result) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived numbers -----------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for _, start, end, _ in self.spans]

    def self_times(self) -> list[float]:
        own = self.durations()
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, source_bytes: int) -> dict[str, float]:
        """Per-layer times (ms) and counts for everything recorded so far."""
        dur = self.durations()
        own = self.self_times()
        total: dict[str, float] = defaultdict(float)
        for (name, *_), d in zip(self.spans, dur):
            total[name] += d

        def ms(*names: str) -> float:
            return 1000.0 * sum(total[n] for n in names)

        rewrite_in_remodel = sum(
            d
            for (name, _, _, parent), d in zip(self.spans, dur)
            if name == "rewrite.rewrite_program"
            and parent >= 0
            and self.spans[parent][0] == "pipeline.transformed_model"
        )
        first_model = 1000.0 * sum(
            o
            for (name, _, _, parent), o in zip(self.spans, own)
            if name == "pipeline.ProgramModel" and not self._under(parent, "pipeline.transformed_model")
        )
        method_facts = [
            d for (name, *_), d in zip(self.spans, dur) if name == "analysis.Analyzer.method_facts"
        ]
        c = self.counts
        parse_s = total["lang.parse.parse_unit"]
        out = {
            "lang.parse_ms": ms("lang.parse.parse_unit"),
            "lang.parse_kb_per_s": source_bytes / 1024 / parse_s if parse_s else 0.0,
            "lang.check_ms": ms("lang.check.check"),
            "cfg.ms": ms("cfg.build_cfg", "cfg.find_loops", "cfg.governing_branches"),
            "cfg.nodes": c["cfg.nodes"],
            "cfg.loops": c["cfg.loops"],
            "termination.ms": ms(
                "termination.extract_cycles",
                "termination.dominating_consts",
                "termination.check_termination",
            ),
            "termination.judged": c["termination.judged"],
            "termination.proven": c["termination.proven"],
            "termination.proven_share": _ratio(c["termination.proven"], c["termination.judged"]),
            "summaries.ms": ms("summaries.classify_terms", "summaries.df_check", "summaries.summarize"),
            "summaries.summarized": c["summaries.summarized"],
            "summaries.summarized_share": _ratio(
                c["summaries.summarized"], c["termination.judged"]
            ),
            "pipeline.model_ms": first_model,
            "pipeline.remodel_ms": ms("pipeline.transformed_model") - 1000.0 * rewrite_in_remodel,
            "aliases.ms": ms("aliases.AliasAnalysis"),
            "callgraph.ms": ms(
                "callgraph.build_call_graph", "callgraph.recursion_set", "callgraph.condensation_order"
            ),
            "callgraph.edges": c["callgraph.edges"],
            "callgraph.recursive": c["callgraph.recursive"],
            "rewrite.ms": ms("rewrite.rewrite_program"),
            "rewrite.bottom_sites": c["rewrite.bottom_sites"],
            "analysis.fixpoint_ms": ms("analysis.analyze_program"),
            "analysis.spec_ms": ms("analysis.Analyzer.spec"),
            "analysis.pops": c["analysis.pops"],
            "analysis.method_ms_max": 1000.0 * max(method_facts, default=0.0),
            "analysis.facts": c["analysis.facts"],
            "analysis.facts_max": c["analysis.facts_max"],
            "analysis.summary_facts": c["analysis.summary_facts"],
            "report.ms": ms("report.build_report", "report.Report.to_json"),
        }
        layer_self: dict[str, float] = defaultdict(float)
        for (name, *_), o in zip(self.spans, own):
            layer_self[layer_of(name)] += o
        whole = sum(layer_self.values())
        for layer in LAYERS:
            out[f"self_share.{layer}"] = 100.0 * layer_self[layer] / whole if whole else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def _under(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def export(self, t0: float) -> dict:
        """All spans, times in microseconds from `t0`."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[n], round((s - t0) * 1e6), round((e - t0) * 1e6), p] for n, s, e, p in self.spans
        ]
        return {"names": names, "columns": ["name", "start_us", "end_us", "parent"], "spans": rows}


# counters that must repeat exactly between traced passes over the same sources
COUNTERS = (
    "cfg.nodes",
    "cfg.loops",
    "termination.judged",
    "termination.proven",
    "summaries.summarized",
    "callgraph.edges",
    "callgraph.recursive",
    "rewrite.bottom_sites",
    "analysis.pops",
    "analysis.facts",
    "analysis.facts_max",
    "analysis.summary_facts",
    "trace.spans",
)


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0
