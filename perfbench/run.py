"""Benchmark of `cook analyze --format json` on seeded Carib workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

The run repeats cycles of set-up and analysis until the next cycle would end
after `--seconds`. Set-up imports `cook` afresh and generates the workload's
sources from the seed. Analysis takes each program, in this process, through
the calls `cook analyze --format json` makes: `parse_unit`, `check`,
`analyze_sources`, `Report.to_json`. The run checks every report against the
digest in `reference.json`, runs the reified interpreter as an independent
oracle on every analyzed method, and prints the metrics as one JSON object on
the last line of standard output. Times are reported at the reference speed
of `calibration`: reference work done between the programs measures how fast
the machine runs at that moment.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
alternates untraced passes with passes traced by `tracing.Tracer`, prints
the per-layer metrics, and writes all spans to `perfbench/out/`. A traced
`census` run first analyzes the ROADMAP baseline program once and prints its
stage times next to the ROADMAP's.

The run uses one process and one thread. It exits with status 2, printing no
result, when the checkout holds no `src/cook`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

MIN_PASSES = 3
ORACLE_STORES = 3  # seeded stores per analyzed method
ORACLE_ARRAY_LEN = 64  # long enough for every loop bound the generators emit
ORACLE_TIMEOUT_S = 5

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "program_p50_ms": "ms",
    "program_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"trace.overhead_s": "s", "analysis.method_ms_max": "ms"}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_kb_per_s"):
        return "KB/s"
    if name.startswith("self_share."):
        return "%"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class Cook:
    """The `cook` modules the benchmark calls, from one import."""

    NAMES = ("lang", "report", "pipeline", "analysis", "generator", "interp", "representatives")

    def __init__(self):
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"cook.{name}"))


def import_cook(fresh: bool) -> Cook:
    """Import `cook` from this checkout's `src`; `fresh` drops an earlier import first."""
    if not (SRC / "cook" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cook package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "cook" or n.startswith("cook.")]:
            del sys.modules[name]
    cook = Cook()
    if SRC not in Path(cook.lang.__file__).resolve().parents:
        raise ImportError(f"cook was imported from {cook.lang.__file__}, not from {SRC}")
    return cook


def setup(workload: str, seed: int):
    """Import `cook` afresh and build the workload's sources; returns both
    and the seconds this took."""
    t0 = perf_counter()
    cook = import_cook(fresh=True)
    srcs = workloads.sources(cook, workload, seed)
    return cook, srcs, perf_counter() - t0


def analyze(cook: Cook, text: str, policy: str):
    """What `cook analyze --format json` does with one source text."""
    program = cook.lang.parse_unit(text)
    symbols = cook.lang.check(program)
    config = cook.report.ReportConfig(format="json", nested_policy=policy)
    report = cook.report.analyze_sources(program, symbols, config)
    return report, report.to_json()


class Checks:
    """Failures per program: errors, reference mismatches, oracle violations."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.errors: set[int] = set()
        self.mismatches: set[int] = set()
        self.violations: set[int] = set()
        self.oracle_runs = 0
        self.oracle_violations = 0
        self.oracle_faults = 0
        self.counters_repeat = True

    def error(self, index: int) -> None:
        print(traceback.format_exc(), file=sys.stderr)
        self.errors.add(index)

    @property
    def failed(self) -> set[int]:
        return self.errors | self.mismatches | self.violations

    def counters(self) -> dict[str, int]:
        return {
            "check.errors": len(self.errors),
            "check.report_mismatch": len(self.mismatches),
            "check.oracle_runs": self.oracle_runs,
            "check.oracle_violations": self.oracle_violations,
            "check.oracle_faults": self.oracle_faults,
        }


def timed_pass(cook, srcs, policy, checks: Checks, bottoms=None, calibrator=None) -> dict[int, float]:
    """Analyze every source once and return each program's latency in
    seconds. With `bottoms`, also keep each method's bottom-sourced
    dependents for the oracle; with `calibrator`, run reference work after
    each program."""
    bottom_type = cook.representatives.Bottom
    latencies: dict[int, float] = {}
    for i, src in enumerate(srcs):
        if i in checks.errors:
            continue
        t0 = perf_counter()
        try:
            report, text = analyze(cook, src.text, policy)
        except Exception:
            checks.error(i)
            continue
        latency = perf_counter() - t0
        latencies[i] = latency
        if workloads.report_digest(text) != checks.reference.get(src.key):
            checks.mismatches.add(i)
        if bottoms is not None:
            bottoms[i] = {
                mid: frozenset(d for d, s, _ in facts if isinstance(s, bottom_type))
                for mid, facts in report.result.facts.items()
            }
        del report, text
        if calibrator is not None:
            calibrator.keep_up(latency)
    return latencies


class _OracleTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _OracleTimeout(f"reified run exceeded {ORACLE_TIMEOUT_S} s")


def oracle(cook, srcs, policy, seed: int, checks: Checks, bottoms) -> None:
    """Run the reified interpreter from seeded stores on every analyzed method;
    a tainted representative missing from the method's bottom facts is a
    violation."""
    interp = cook.interp
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for i, src in enumerate(srcs):
            if i not in bottoms:
                continue
            try:
                _oracle_program(cook, interp, src, policy, seed, checks, bottoms[i], i)
            except Exception:
                checks.error(i)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _oracle_program(cook, interp, src, policy, seed, checks, bottoms, index) -> None:
    program = cook.lang.parse_unit(src.text)
    model = cook.pipeline.ProgramModel(program, cook.lang.check(program), nested_policy=policy)
    decisions = model.decisions()
    for mid in model.methods:
        rng = random.Random(f"{seed}/{src.key}/{mid}")
        for _ in range(ORACLE_STORES):
            store = interp.random_store(
                model.symbols, model.aliases, mid, rng, array_len=ORACLE_ARRAY_LEN
            )
            checks.oracle_runs += 1
            signal.setitimer(signal.ITIMER_REAL, ORACLE_TIMEOUT_S)
            try:
                out = interp.run_reified(program, model.symbols, model.aliases, mid, store, decisions)
            except interp.InterpFault:
                checks.oracle_faults += 1
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if interp.collect_taints(out, model.aliases, mid) - bottoms.get(mid, frozenset()):
                checks.oracle_violations += 1
                checks.violations.add(index)


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def untraced_run(workload, seed, seconds, checks: Checks) -> dict:
    """Cycles of a fresh set-up and a timed pass, until the next cycle would
    end after `seconds`. Every time is scaled to the reference speed by
    reference work done around the set-up and between the programs of the
    pass; see `calibration`."""
    policy = workloads.WORKLOADS[workload].policy
    setup_seconds, pass_seconds, wall_seconds, unit_ms = [], [], [], []
    first_cook, srcs, latencies, bottoms = None, None, None, {}
    start, last = perf_counter(), 0.0
    while len(pass_seconds) < MIN_PASSES or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        before = calibration.Calibrator()
        before.keep_up(0.0)
        cook, again, elapsed = setup(workload, seed)
        after = calibration.Calibrator()
        after.keep_up(elapsed)
        setup_seconds.append(elapsed * (before.scale() + after.scale()) / 2)
        if srcs is None:
            first_cook, srcs, latencies = cook, again, [[] for _ in again]
        elif again != srcs:
            raise RuntimeError("one seed gave two different sets of sources")
        gc.collect()
        keep = bottoms if cook is first_cook else None
        calibrator = calibration.Calibrator()
        measured = timed_pass(cook, srcs, policy, checks, keep, calibrator)
        scaled = [t * s for t, s in zip(measured.values(), calibrator.local_scales())]
        for i, latency in zip(measured, scaled):
            latencies[i].append(latency)
        wall_seconds.append(sum(measured.values()))
        pass_seconds.append(sum(scaled))
        unit_ms.append(1000.0 * calibrator.mean_unit_s())
        last = perf_counter() - t0
    # the bottom facts hold representatives of the first import's classes
    oracle(first_cook, srcs, policy, seed, checks, bottoms)
    typical = [statistics.median(ls) for ls in latencies if ls]
    print(f"{len(srcs)} programs, {len(pass_seconds)} passes; latency samples: {len(typical)} programs")
    print("pass wall seconds:", " ".join(f"{t:.3f}" for t in wall_seconds))
    print("reference unit ms:", " ".join(f"{t:.2f}" for t in unit_ms))
    print("pass seconds at reference speed:", " ".join(f"{t:.3f}" for t in pass_seconds))
    return {
        "setup_s": statistics.median(setup_seconds),
        "analyze_s": statistics.median(pass_seconds),
        "program_p50_ms": 1000.0 * percentile(typical, 50),
        "program_p90_ms": 1000.0 * percentile(typical, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def at_reference_speed(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Per-layer metrics with their times scaled by `scale`."""
    out = dict(metrics)
    for name, value in metrics.items():
        if per_layer_unit(name) == "ms":
            out[name] = value * scale
        elif name == "lang.parse_kb_per_s":
            out[name] = value / scale
    return out


def traced_run(cook, workload, srcs, policy, seconds, seed, checks: Checks) -> dict:
    source_bytes = sum(len(s.text.encode()) for s in srcs)
    bottoms: dict[int, dict] = {}
    tracers: list[tracing.Tracer] = []
    start = perf_counter()
    exported = {}
    if workload == "census":
        exported["baseline"] = baseline_reproduction(cook, start)
    pass_metrics, traced_seconds, untraced_seconds = [], [], []
    last = 0.0
    while not tracers or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        gc.collect()
        calibrator = calibration.Calibrator()
        measured = timed_pass(cook, srcs, policy, checks, bottoms if not tracers else None, calibrator)
        untraced_seconds.append(sum(measured.values()) * calibrator.scale())
        gc.collect()
        calibrator = calibration.Calibrator()
        with tracing.Tracer(cook) as tracer:
            measured = timed_pass(cook, srcs, policy, checks, None, calibrator)
        scale = calibrator.scale()
        traced_seconds.append(sum(measured.values()) * scale)
        tracers.append(tracer)
        pass_metrics.append(at_reference_speed(tracer.metrics(source_bytes), scale))
        last = perf_counter() - t0
    oracle(cook, srcs, policy, seed, checks, bottoms)

    first = pass_metrics[0]
    checks.counters_repeat = all(
        all(m[k] == first[k] for k in tracing.COUNTERS) for m in pass_metrics
    )
    if not checks.counters_repeat:
        print("counters differ between traced passes", file=sys.stderr)
    # times from the median traced pass, so that the shares add up within one pass
    order = sorted(range(len(traced_seconds)), key=traced_seconds.__getitem__)
    out = pass_metrics[order[(len(order) - 1) // 2]]
    out["trace.overhead_s"] = statistics.median(traced_seconds) - statistics.median(untraced_seconds)

    exported["passes"] = [t.export(start) for t in tracers]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(exported, fh)

    print(f"{len(srcs)} programs, {len(tracers)} traced and {len(tracers)} untraced passes")
    print("self-time share by layer (%):")
    for layer in tracing.LAYERS:
        print(f"  {layer:<12} {out[f'self_share.{layer}']:6.1f}")
    return out


def baseline_reproduction(cook, start: float) -> dict:
    """Analyze the ROADMAP baseline program once, traced, and print its stage
    times next to the ROADMAP's."""
    text = workloads.reordered_text(cook, workloads.BASELINE, 0, 0)
    with tracing.Tracer(cook) as tracer:
        analyze(cook, text, "basic")
    m = tracer.metrics(len(text.encode()))
    durations = tracer.durations()
    first_check = sum(
        d for (name, _, _, parent), d in zip(tracer.spans, durations)
        if name == "lang.check.check" and parent < 0
    )
    first_model = sum(
        d for (name, _, _, parent), d in zip(tracer.spans, durations)
        if name == "pipeline.ProgramModel"
        and parent >= 0
        and tracer.spans[parent][0] == "report.analyze_sources"
    )
    measured = {
        "parse": m["lang.parse_ms"],
        "check": 1000.0 * first_check,
        "ProgramModel": 1000.0 * first_model,
        "rewrite": m["rewrite.ms"],
        "re-check, aliases, model of rewritten": m["pipeline.remodel_ms"],
        "analyze_program": m["analysis.fixpoint_ms"],
        "report": m["report.ms"],
    }
    print(f"ROADMAP baseline program ({workloads.BASELINE['methods']} methods), ms:")
    print(f"  {'stage':<40} {'this run':>10} {'ROADMAP':>10}")
    for stage, ms in measured.items():
        print(f"  {stage:<40} {ms:10.0f} {workloads.BASELINE_ROADMAP_MS[stage]:10d}")
    return {"stages_ms": measured, "roadmap_ms": workloads.BASELINE_ROADMAP_MS, **tracer.export(start)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_cook(fresh=False)
    except (FileNotFoundError, ImportError) as e:
        print(f"cannot set up the benchmark: {e}", file=sys.stderr)
        return 2
    policy = workloads.WORKLOADS[args.workload].policy
    print(f"workload {args.workload}, seed {args.seed}, {policy} policy")
    with open(REFERENCE, encoding="utf-8") as fh:
        checks = Checks(json.load(fh))

    if args.trace:
        cook, srcs, _ = setup(args.workload, args.seed)
        values = traced_run(cook, args.workload, srcs, policy, args.seconds, args.seed, checks)
        values.update(checks.counters())
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values = untraced_run(args.workload, args.seed, args.seconds, checks)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    attempted = len(workloads.keys(args.workload, args.seed))
    failed = len(checks.failed)
    result = {
        "correct": failed == 0 and checks.counters_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
