"""Latency and failure-rate accounting.

The paper's performance metric is the **failure rate**: "the percentage
of transactions that do not finish execution before their deadline"
(Section 6.1), tracked overall and per workload (the gold/silver
experiment of Section 6.5 needs the split).  The recorder also keeps
execution-time statistics per transaction type and dispatch frequency,
which regenerate the paper's Figure 3 table.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.request import Request


def percentile(values: List[float], p: float) -> float:
    """Order-statistic percentile (the paper's P95 convention)."""
    if not values:
        raise ValueError("no values")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def _instants() -> array:
    return array("d")


@dataclass
class WorkloadStats:
    """Per-workload accumulator."""

    offered: int = 0
    completed: int = 0
    missed: int = 0
    #: Arrival and finish instant of every counted completion, in
    #: completion order (empty when the recorder keeps no latencies).
    #: Both instants rather than their difference: a deadline is
    #: ``arrival + target``, and ``finish <= arrival + target`` cannot be
    #: re-derived bit for bit from ``finish - arrival``.
    arrivals: array = field(default_factory=_instants)
    finishes: array = field(default_factory=_instants)

    @property
    def failure_rate(self) -> float:
        """#failed / #offered, the paper's y-axis."""
        if self.offered == 0:
            return 0.0
        return self.missed / self.offered

    @property
    def latencies(self) -> List[float]:
        """Response time of every counted completion."""
        return [finish - arrival for arrival, finish
                in zip(self.arrivals, self.finishes)]

    def mean_latency(self) -> float:
        latencies = self.latencies
        if not latencies:
            raise ValueError("no completions recorded")
        return sum(latencies) / len(latencies)

    def missed_under(self, target: float) -> int:
        """What :attr:`missed` would read had every request of this
        workload carried the latency target ``target``: the live test's
        arithmetic over the kept instants, and a request that never
        finished (rejected, lost) misses every deadline."""
        if len(self.arrivals) != self.completed:
            raise ValueError("the recorder kept no completion instants")
        late = sum(not finish <= (arrival + target) + 1e-12
                   for arrival, finish in zip(self.arrivals, self.finishes))
        return late + (self.offered - self.completed)


class LatencyRecorder:
    """Collects per-request outcomes during the measurement window.

    Attach via ``server.add_completion_listener(recorder.on_completion)``
    and :meth:`set_window` to the test phase --- warmup and training
    completions are then ignored, as in the paper's three-phase
    methodology.
    """

    def __init__(self, keep_latencies: bool = True):
        #: Outcomes count iff the request *arrived* inside [t0, t1) (late
        #: completions of in-window arrivals still count as failures, not
        #: censored); a recorder with no window counts nothing.
        self.window: Optional[Tuple[float, float]] = None
        self.keep_latencies = keep_latencies
        self.per_workload: Dict[str, WorkloadStats] = {}
        #: execution times keyed by (txn_type, dispatch frequency).
        self.exec_times: Dict[Tuple[str, float], List[float]] = {}
        self.total_offered = 0
        self.total_completed = 0
        self.total_missed = 0
        self.total_rejected = 0
        self.total_lost = 0

    # ------------------------------------------------------------------
    def set_window(self, start: float, end: float) -> None:
        """Count only requests arriving in ``[start, end)``."""
        if end <= start:
            raise ValueError("window must have positive length")
        self.window = (start, end)

    def _in_scope(self, request: Request) -> bool:
        if self.window is None:
            return False
        start, end = self.window
        return start <= request.arrival_time < end

    def on_rejection(self, request: Request) -> None:
        """Count an admission-control rejection: offered but never
        finishes, so it is a miss by the paper's failure metric."""
        if not self._in_scope(request):
            return
        stats = self.per_workload.setdefault(request.workload.name,
                                             WorkloadStats())
        stats.offered += 1
        stats.missed += 1
        self.total_offered += 1
        self.total_missed += 1
        self.total_rejected += 1

    def on_lost(self, request: Request) -> None:
        """Count a request that will never finish --- stranded on a dead
        core or in an undrainable queue when a faulted run ends.  Like a
        rejection it is offered-and-missed, so dying-core scenarios
        cannot censor their casualties into a *better* failure rate."""
        if not self._in_scope(request):
            return
        stats = self.per_workload.setdefault(request.workload.name,
                                             WorkloadStats())
        stats.offered += 1
        stats.missed += 1
        self.total_offered += 1
        self.total_missed += 1
        self.total_lost += 1

    def on_completion(self, request: Request) -> None:
        # _in_scope and the Request latency/deadline properties are
        # inlined here (same tests, same arithmetic): this runs once per
        # completed transaction and the frames dominate its cost.
        window = self.window
        arrival = request.arrival_time
        if window is None or not window[0] <= arrival < window[1]:
            return
        # get-then-insert rather than setdefault: setdefault constructs
        # its default on every call, and this runs once per completion.
        name = request.workload_name
        stats = self.per_workload.get(name)
        if stats is None:
            stats = self.per_workload[name] = WorkloadStats()
        stats.offered += 1
        stats.completed += 1
        self.total_offered += 1
        self.total_completed += 1
        finish = request.finish_time
        if not finish <= request.deadline + 1e-12:
            stats.missed += 1
            self.total_missed += 1
        if self.keep_latencies:
            stats.arrivals.append(arrival)
            stats.finishes.append(finish)
            key = (request.txn_type, request.dispatch_freq)
            times = self.exec_times.get(key)
            if times is None:
                times = self.exec_times[key] = []
            times.append(finish - request.dispatch_time)

    # ------------------------------------------------------------------
    @property
    def failure_rate(self) -> float:
        """Overall #failed / #offered."""
        if self.total_offered == 0:
            return 0.0
        return self.total_missed / self.total_offered

    def workload_failure_rate(self, workload: str) -> float:
        stats = self.per_workload.get(workload)
        return stats.failure_rate if stats is not None else 0.0

    def exec_time_stats(self, txn_type: str,
                        freq_ghz: Optional[float] = None
                        ) -> Tuple[float, float, int]:
        """(mean, P95, count) of execution times for a type.

        With ``freq_ghz`` given, restricted to requests dispatched at
        that frequency (the Figure 3 table's columns); otherwise pooled.
        """
        values: List[float] = []
        for (name, freq), times in self.exec_times.items():
            if name != txn_type:
                continue
            if freq_ghz is not None and abs(freq - freq_ghz) > 1e-9:
                continue
            values.extend(times)
        if not values:
            return (float("nan"), float("nan"), 0)
        mean = sum(values) / len(values)
        return (mean, percentile(values, 95), len(values))

    def combined_exec_time_stats(self, freq_ghz: Optional[float] = None
                                 ) -> Tuple[float, float, int]:
        """Pooled (mean, P95, count) across all types (Figure 3 last row)."""
        values: List[float] = []
        for (name, freq), times in self.exec_times.items():
            if freq_ghz is not None and abs(freq - freq_ghz) > 1e-9:
                continue
            values.extend(times)
        if not values:
            return (float("nan"), float("nan"), 0)
        mean = sum(values) / len(values)
        return (mean, percentile(values, 95), len(values))
