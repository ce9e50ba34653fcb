"""Seeded workloads for the `cook analyze` benchmark.

Every workload is a list of Carib source texts built with `cook.generator`
from the run's `--seed`. Each text has a key under which `reference.json`
holds the digest of its report at the commit that defined the benchmark, so
the seed must map into a finite set of programs:

* `census` and `islands` (twelve programs each, generator seeds 0 to 11)
  have fixed structures, and the run seed picks
  one of `ORDERS` declaration orders of their methods. A different order
  changes the text, the line numbers in the report and the order in which
  the fixpoint visits methods, but not the amount of analysis work. A fresh
  random structure per seed would not do: the cost of the fixpoint varies by
  a factor of three between generator seeds, which would swamp any change a
  later optimisation makes.
* `loops` is a corpus of small programs drawn, without replacement, from two
  fixed pools. With 700 programs per run, the draw barely moves the
  total cost.

This module imports nothing from `cook`; callers pass in the modules, so the
benchmark can time the import itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

# whole-program profiles (keyword arguments of cook.generator.GenParams)
CENSUS = dict(
    methods=16, classes=2, loop=0.2, opaque_loop=0.05, recursion=0.03, extern=0.08, call=0.3
)
PROGRAMS = 12  # census and islands: generator seeds 0 to 11
ISLANDS = dict(
    methods=50,
    classes=4,
    loop=0.15,
    opaque_loop=0,
    recursion=0,
    extern=0,
    heap=0.6,
    virtual=0.5,
    max_depth=1,
)
# the program the ROADMAP baseline was measured on, reproduced by a traced census run
BASELINE = dict(CENSUS, methods=200, classes=4)
BASELINE_ROADMAP_MS = {
    "parse": 383,
    "check": 26,
    "ProgramModel": 308,
    "rewrite": 80,
    "re-check, aliases, model of rewritten": 89,
    "analyze_program": 14300,
    "report": 23,
}
ORDERS = 16

# loops: loop-dense generated programs plus dependency-free loop subjects
LOOP_DENSE = dict(methods=3, stmts=(1, 3), loop=0.7, opaque_loop=0.1, max_depth=2, call=0.1)
DENSE_POOL, DENSE_PICK = 800, 200
DF_POOL, DF_PICK = 2000, 500


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    policy: str  # nested-loop policy passed to ReportConfig
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census",
            "basic",
            "the paper's census: twelve whole programs on the ROADMAP baseline profile, "
            "where the dependence fixpoint over bottom-heavy fact sets takes most of the time",
        ),
        Workload(
            "islands",
            "basic",
            "twelve divergence-free programs heavy in heap and dispatch: every method is "
            "an island and the fixpoint works on field and array facts instead of bottom",
        ),
        Workload(
            "loops",
            "summary",
            "700 small loop-dense programs under the summary policy: parse, CFG, "
            "termination oracle and summaries dominate, the fixpoint is a minority",
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class Source:
    key: str  # key of the reference digest
    text: str


def keys(workload: str, seed: int) -> list[str]:
    """Reference keys of the programs a run seed draws, in analysis order."""
    if workload in ("census", "islands"):
        return [f"{workload}/{g}/{seed % ORDERS}" for g in range(PROGRAMS)]
    if workload == "loops":
        rng = random.Random(seed)
        drawn = [f"loops/dense/{k}" for k in rng.sample(range(DENSE_POOL), DENSE_PICK)]
        drawn += [f"loops/df/{k}" for k in rng.sample(range(DF_POOL), DF_PICK)]
        rng.shuffle(drawn)
        return drawn
    raise ValueError(f"unknown workload {workload!r}")


def all_keys() -> list[str]:
    """Every key any seed can draw."""
    out = [f"{w}/{g}/{k}" for w in ("census", "islands") for g in range(PROGRAMS) for k in range(ORDERS)]
    out += [f"loops/dense/{k}" for k in range(DENSE_POOL)]
    out += [f"loops/df/{k}" for k in range(DF_POOL)]
    return out


def sources(cook, workload: str, seed: int) -> list[Source]:
    """The workload's source texts for a run seed; the same seed gives the same texts."""
    return [source(cook, key) for key in keys(workload, seed)]


def source(cook, key: str) -> Source:
    name, first, second = key.split("/")
    if name in ("census", "islands"):
        params = CENSUS if name == "census" else ISLANDS
        return Source(key, reordered_text(cook, params, int(first), int(second)))
    gen = cook.generator
    if first == "dense":
        program = gen.generate_program(int(second), gen.GenParams(**LOOP_DENSE), normalize=False)
        return Source(key, cook.lang.pretty(program))
    return Source(key, gen.generate_df_loop(int(second))[0])


def reordered_text(cook, params: dict, generator_seed: int, order: int) -> str:
    """A generated program with its methods declared in shuffled order
    `order`; order 0 keeps the generator's order."""
    gen = cook.generator
    program = gen.generate_program(generator_seed, gen.GenParams(**params), normalize=False)
    if order:
        methods = list(program.methods)
        random.Random(order).shuffle(methods)
        program = dataclasses.replace(program, methods=tuple(methods))
    return cook.lang.pretty(program)


def report_digest(report_json: str) -> str:
    """Digest of a JSON report with its `timing_ms` removed."""
    d = json.loads(report_json)
    d.pop("timing_ms", None)
    canonical = json.dumps(d, indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
