"""Reference work timed beside the analysis, to take the machine's speed out
of the reported times.

The shared virtual machines this benchmark runs on change speed by up to
1.8 times for seconds to minutes at a time, depending on what their
neighbours do. CPU time slows down with wall time, so neither can be compared
between runs. What stays steady is the ratio of the analysis time to the
time of a fixed piece of reference work done at the same moments.

The reference work is a unit of pure Python that does what the analyzer's
fixpoint does: worklist iterations that merge, filter and extend frozensets
of tuples of slotted frozen dataclasses. It imports nothing from `cook`, so a
change to `cook` never changes it. A `Calibrator` runs units between the
programs of a pass until they have taken `SHARE` of the time the programs
took, and `scale()` turns measured seconds into seconds at the reference
speed, the speed at which one unit takes `REFERENCE_UNIT_S`.
"""

from __future__ import annotations

import gc
import random
from collections import deque
from dataclasses import dataclass
from time import perf_counter

REFERENCE_UNIT_S = 0.010  # one unit on a 2.1 GHz Xeon vCPU in its fast state
SHARE = 0.25  # calibration time per second of measured work
MIN_UNITS = 2


@dataclass(frozen=True, slots=True)
class _Rep:
    method: str
    name: str


def _graph(seed: int, nodes: int = 24, reps: int = 120):
    """A control-flow graph whose nodes generate and kill (dependent, source) facts."""
    rng = random.Random(seed)
    pool = [_Rep(f"m{i % 7}", f"v{i}") for i in range(reps)]
    succs = [
        [(n + 1) % nodes] + ([rng.randrange(nodes)] if rng.random() < 0.3 else [])
        for n in range(nodes)
    ]
    preds: list[list[int]] = [[] for _ in range(nodes)]
    for n, ss in enumerate(succs):
        for s in ss:
            preds[s].append(n)
    gen = [[(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randrange(1, 6))] for _ in range(nodes)]
    kill = [frozenset(rng.sample(pool, 3)) for _ in range(nodes)]
    return succs, preds, gen, kill


_GRAPHS = [_graph(seed) for seed in range(2)]


def unit() -> int:
    """One unit of reference work; returns the size of the exit facts, always 120."""
    total = 0
    for succs, preds, gen, kill in _GRAPHS:
        n_nodes = len(succs)
        out_facts: list[frozenset] = [frozenset()] * n_nodes
        work = deque([0])
        queued = [False] * n_nodes
        queued[0] = True
        while work:
            n = work.popleft()
            queued[n] = False
            merged: set = set()
            for p in preds[n]:
                merged |= out_facts[p]
            k = kill[n]
            out = {f for f in merged if f[0] not in k}
            out.update(gen[n])
            out.update((d, s) for d, s in list(out)[:20] if d.name < s.name)
            frozen = frozenset(out)
            if frozen != out_facts[n]:
                out_facts[n] = frozen
                for s in succs[n]:
                    if not queued[s]:
                        queued[s] = True
                        work.append(s)
        total += len(out_facts[-1])
    return total


class Calibrator:
    """Runs reference units beside measured work and gives the speed factor."""

    def __init__(self):
        self.work_s = 0.0
        self.unit_s = 0.0
        self.units = 0
        self._waiting = 0  # calls of keep_up since units last ran
        self._next_unit_s: list[float] = []  # per call, mean time of the units run next


    def keep_up(self, work_s: float) -> None:
        """Count `work_s` seconds of measured work, then run units until their
        time is `SHARE` of all work counted so far."""
        self.work_s += work_s
        self._waiting += 1
        ran, ran_s = 0, 0.0
        enabled = gc.isenabled()
        gc.disable()
        try:
            while self.unit_s + ran_s < SHARE * self.work_s or self.units + ran < MIN_UNITS:
                t0 = perf_counter()
                unit()
                ran_s += perf_counter() - t0
                ran += 1
        finally:
            if enabled:
                gc.enable()
        if ran:
            self.unit_s += ran_s
            self.units += ran
            self._next_unit_s += [ran_s / ran] * self._waiting
            self._waiting = 0

    def mean_unit_s(self) -> float:
        return self.unit_s / self.units

    def scale(self) -> float:
        """Measured seconds times this are seconds at the reference speed."""
        return REFERENCE_UNIT_S / self.mean_unit_s()

    def local_scales(self) -> list[float]:
        """A scale per call of `keep_up`, from the units run next after it, so
        that each piece of work is scaled by the speed of its own moment.
        Calls after the last units get `scale()`."""
        trailing = [self.mean_unit_s()] * self._waiting
        return [REFERENCE_UNIT_S / u for u in self._next_unit_s + trailing]
