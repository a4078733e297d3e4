"""Lightweight wall-clock accounting for the experiment harness.

Every sweep records into one :class:`TimingReport` (the
:class:`~repro.harness.parallel.SweepRunner`'s own unless the caller
passes one): per-phase wall time, per-cell wall time and simulated
events, cache hits, and the sweep wall clock that turns them into
events/second.  The CLI renders the report after each figure.  Numbers
that are meant to be compared across commits come from
``python -m bench`` (the repo's one benchmark ledger), not from here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List


def perf_clock() -> float:
    """Monotonic high-resolution seconds for measuring *harness* speed
    --- the ONLY sanctioned host-clock read.

    Results may be recorded (phase timings, cells/sec) but never
    influence simulated behaviour.  reprolint RL001 enforces this:
    every other ``time.time()``/``perf_counter()``/``datetime.now()``
    in the tree is a lint error, so "what can observe the host clock"
    stays one grep-sized function.
    """
    return time.perf_counter()


@dataclass
class CellTiming:
    """One sweep cell's execution record."""

    label: str
    cached: bool
    wall_seconds: float
    sim_events: int = 0
    #: Scored from a simulation another cell of the sweep already
    #: counts (same dynamics, different deadlines): its ``sim_events``
    #: are that simulation's, not additional work.
    shared: bool = False


@dataclass
class TimingReport:
    """Wall-time accounting for one harness invocation (e.g. one figure)."""

    name: str
    jobs: int = 1
    phases: Dict[str, float] = field(default_factory=dict)
    cells: List[CellTiming] = field(default_factory=list)
    #: Sweep wall-clock seconds, accumulated across the runner's
    #: ``run()`` calls.  This is the parallel-aware throughput
    #: denominator: per-cell walls overlap under ``jobs > 1``, so
    #: summing them undercounts events/sec by ~the worker count.
    sweep_wall_seconds: float = 0.0

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase; re-entering a name accumulates."""
        start = perf_clock()
        try:
            yield
        finally:
            elapsed = perf_clock() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def record_cell(self, label: str, cached: bool, wall_seconds: float,
                    sim_events: int = 0, shared: bool = False) -> None:
        self.cells.append(
            CellTiming(label, cached, wall_seconds, sim_events, shared))

    def record_sweep(self, wall_seconds: float) -> None:
        """Accumulate one sweep's wall-clock time (the runner calls
        this once per ``run()``)."""
        self.sweep_wall_seconds += wall_seconds

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for c in self.cells if not c.cached)

    @property
    def shared_cells(self) -> int:
        return sum(1 for c in self.cells if c.shared)

    @property
    def simulations(self) -> int:
        """Simulations run: uncached cells, a shared one counted once."""
        return self.cache_misses - self.shared_cells

    def aggregate_events_per_sec(self) -> float:
        """Simulated events per wall second, over executed (uncached)
        cells --- the harness's end-to-end simulation throughput.  A
        simulation that served several cells counts once.

        The denominator is the sweep wall clock when the runner
        recorded one (correct under ``jobs > 1``, where per-cell walls
        overlap); reports fed by hand (no runner) fall back to the
        summed per-cell walls, which equal the sweep wall serially.
        """
        executed = [c for c in self.cells if not c.cached]
        events = sum(c.sim_events for c in executed if not c.shared)
        wall = self.sweep_wall_seconds if self.sweep_wall_seconds > 0 \
            else sum(c.wall_seconds for c in executed)
        return events / wall if wall > 0 else 0.0

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def render(self) -> str:
        out = [f"timing [{self.name}] jobs={self.jobs}"]
        for phase, seconds in self.phases.items():
            out.append(f"  {phase:24s} {seconds:8.2f} s")
        if self.cells:
            counts = [f"{self.cache_hits} cached",
                      f"{self.simulations} simulated"]
            if self.shared_cells:
                counts.append(f"{self.shared_cells} scored from a shared "
                              "simulation")
            out.append(f"  cells: {len(self.cells)} ({', '.join(counts)})")
            rate = self.aggregate_events_per_sec()
            if rate > 0:
                out.append(f"  simulated events/sec: {rate:,.0f}")
            slowest = max(self.cells, key=lambda c: c.wall_seconds)
            out.append(f"  slowest cell: {slowest.label} "
                       f"({slowest.wall_seconds:.2f} s)")
        return "\n".join(out)


__all__ = ["CellTiming", "TimingReport", "perf_clock"]
