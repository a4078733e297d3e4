"""Execution-time estimation (paper Section 3.2).

POLARIS predicts the execution time ``mu(c, f)`` of a workload-``c``
transaction at frequency ``f`` as the p-th percentile of the measured
execution times over a sliding window of the ``S`` most recent
workload-``c`` transactions that ran at frequency ``f``.  The paper
uses ``S = 1000`` and ``p`` in [95, 99] (95 for most experiments) and
adapts Haerdle & Steiger's running-median maintenance to arbitrary
percentiles.

:class:`SlidingWindowPercentile` keeps the window in two structures: a
ring buffer in arrival order (for eviction) and one flat sorted list
(for the order statistic).  A full-window observation is one
``bisect_left`` + ``del`` for the evicted value and one ``insort`` for
the new one.  At the windows the reproduction runs (``S <= 1000``)
those memmoves cost less than a chunked sorted list's method calls and
run bookkeeping, which pay off only past ``S`` of about 2000 (DESIGN.md
section 9).  The percentile itself is cached and only recomputed after
the window changes, because POLARIS reads estimates far more often than
it observes.

**The same-side rule.**  On a full window the percentile's rank is
fixed, so when the evicted and the inserted value lie *strictly* on the
same side of the current percentile the element at that rank is the
same element.  :meth:`SlidingWindowPercentile.observe` returns whether
the statistic can have moved, and the estimator recomputes and
publishes only then (a tie, a growing window or a stale memo always
does); about one in-run observation in ten moves its p95.
:meth:`SlidingWindowPercentile.fill` loads a training column into an
empty window with one sort.

:class:`ListSlidingWindowPercentile` is the reference oracle: no memo,
no same-side rule and no ``fill``, so the property tests can assert
that those three shortcuts change no ``value()``.

Unobserved pairs estimate **zero**: "the execution time estimates for
all workloads at all frequencies can be initialized to zero.  This will
cause POLARIS to gradually explore and initialize its estimators for
unexplored frequencies, from lowest to highest" (Section 6.1).  The
experiment harness reproduces the paper's explicit training phase that
fills every window before measuring.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from operator import lt
from typing import Callable, Deque, Dict, List, Sequence, Tuple
from weakref import WeakMethod

DEFAULT_WINDOW = 1000
DEFAULT_PERCENTILE = 95.0


class SlidingWindowPercentile:
    """Running p-th percentile over the last ``window`` observations."""

    __slots__ = ("window", "percentile", "_order", "_sorted",
                 "observations", "_cached_value", "_cached_at")

    def __init__(self, window: int = DEFAULT_WINDOW,
                 percentile: float = DEFAULT_PERCENTILE):
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        self.window = window
        self.percentile = percentile
        self._order: Deque[float] = deque()
        #: The window's values in sorted order.
        self._sorted: List[float] = []
        self.observations = 0
        #: value() memo, keyed by the observation count it was computed
        #: at --- observe() already bumps the counter, so invalidation
        #: costs the hot path nothing.
        self._cached_value = 0.0
        self._cached_at = 0

    def observe(self, value: float) -> bool:
        """Add a measurement, evicting the oldest beyond the window.
        Returns whether :meth:`value` can have moved (the same-side
        rule of the module docstring); False keeps the memo valid."""
        # ``not >=`` rather than ``<``: NaN fails every comparison, and
        # one NaN in the sorted list corrupts every later bisect.
        if not value >= 0.0:
            raise ValueError("execution times must be non-negative numbers")
        observations = self.observations
        self.observations = observations + 1
        order = self._order
        ordered = self._sorted
        moved = True
        if len(order) == self.window:
            old = order.popleft()
            if self._cached_at == observations:
                current = self._cached_value
                # Strictness matters on the evicted side: evicting the
                # current value itself can move the statistic.
                if old < current > value or old > current < value:
                    self._cached_at = observations + 1
                    moved = False
            del ordered[bisect_left(ordered, old)]
        insort(ordered, value)
        order.append(value)
        return moved

    def fill(self, values: Sequence[float]) -> None:
        """``for v in values: observe(v)``, all or nothing on a bad
        value, in one sort when the window is empty and they fit it."""
        if not all(value >= 0.0 for value in values):
            raise ValueError("execution times must be non-negative numbers")
        if self._order or len(values) > self.window:
            for value in values:
                self.observe(value)
            return
        self._sorted = sorted(values)
        self._order.extend(values)
        self.observations += len(values)

    def value(self) -> float:
        """Current percentile estimate (0.0 when no observations yet).

        Memoized per window state: POLARIS calls ``estimate()`` once per
        (queued request x frequency) inside SetProcessorFreq, so reads
        vastly outnumber updates.
        """
        observations = self.observations
        if self._cached_at == observations:
            return self._cached_value
        n = len(self._sorted)
        if n == 0:
            result = 0.0
        else:
            rank = math.ceil(self.percentile / 100.0 * n)
            result = self._sorted[max(0, rank - 1)]
        self._cached_value = result
        self._cached_at = observations
        return result

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def full(self) -> bool:
        return len(self._sorted) == self.window


class ListSlidingWindowPercentile:
    """The plain sliding-window percentile (reference oracle).

    Recomputes :meth:`value` from the sorted list on every call, so
    property tests can assert that :class:`SlidingWindowPercentile`'s
    memo, same-side rule and :meth:`~SlidingWindowPercentile.fill` are
    observation-for-observation invisible.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 percentile: float = DEFAULT_PERCENTILE):
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        self.window = window
        self.percentile = percentile
        self._order: Deque[float] = deque()
        self._sorted: List[float] = []
        self.observations = 0

    def observe(self, value: float) -> None:
        if not value >= 0.0:
            raise ValueError("execution times must be non-negative numbers")
        self.observations += 1
        if len(self._order) == self.window:
            oldest = self._order.popleft()
            idx = bisect_left(self._sorted, oldest)
            self._sorted.pop(idx)
        self._order.append(value)
        insort(self._sorted, value)

    def value(self) -> float:
        n = len(self._sorted)
        if n == 0:
            return 0.0
        rank = math.ceil(self.percentile / 100.0 * n)
        return self._sorted[max(0, rank - 1)]

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def full(self) -> bool:
        return len(self._sorted) == self.window


def rising_pairs(row: Sequence[float]) -> int:
    """Adjacent pairs *below the top level* with ``row[j] < row[j+1]``
    (an estimate that grows with frequency)."""
    return sum(map(lt, row, row[1:-1]))


class EstimateRows(dict):
    """``rows[c][j] == estimate(c, freqs[j])``, one row per workload.

    A row is built on first lookup (``rows[c]``; ``rows.get(c)`` never
    builds), through the owning estimator's ``estimate``, and is then
    the one list object every reader of that workload holds.
    ``bind(c, freqs, row)`` tells the estimator about the new row so it
    keeps it current.  The estimator hands its tables only weak
    callables (:func:`_weakly`): it owns the tables, so bound methods
    would make every run's estimator a reference cycle.

    ``rising`` is :func:`rising_pairs` summed over the rows, kept by
    whoever writes a slot (``__missing__``, the estimator's
    ``_mutated`` and ``skew``; simsan recounts it as ``rows-falling``).
    Zero means every row is non-increasing below the top level --- the
    licence ``select_frequency`` needs to start its walk above the
    floor.  The top slot breaks the order most often (p95s of
    separately filled windows) and the walk never needs it, so it is
    not counted.
    """

    __slots__ = ("_estimate", "_freqs", "_bind", "rising")

    def __init__(self, estimate, freqs: Tuple[float, ...], bind):
        super().__init__()
        self._estimate = estimate
        self._freqs = freqs
        self._bind = bind
        self.rising = 0

    def __missing__(self, workload: str) -> List[float]:
        estimate = self._estimate
        row = self[workload] = [estimate(workload, f) for f in self._freqs]
        self.rising += rising_pairs(row)
        self._bind(workload, self._freqs, row)
        return row


def _weakly(method) -> Callable:
    """``method``, called through a weak reference to its object."""
    weak = WeakMethod(method)
    return lambda *args: weak()(*args)


class ExecutionTimeEstimator:
    """The full ``mu(c, f)`` table: one percentile tracker per pair.

    The estimator also owns the *estimate rows* SetProcessorFreq reads
    (:meth:`mu_rows`): per frequency ladder, one identity-stable list
    per workload with ``row[j] == estimate(c, freqs[j])`` at all times.
    Every mutation that moves a percentile patches the one slot it
    changes, so a reader that holds a row --- each queued request
    carries its workload's --- never validates or rebuilds anything.

    :meth:`skew` scales every estimate by a list of factors without an
    observation (repro.faults' misprediction windows): the windows keep
    measuring honestly, and only what the scheduler reads is skewed.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 percentile: float = DEFAULT_PERCENTILE):
        self.window = window
        self.percentile = percentile
        self._trackers: Dict[Tuple[str, float], SlidingWindowPercentile] = {}
        self._rows: Dict[Tuple[float, ...], EstimateRows] = {}
        #: ``(workload, freq) -> [(table, row, index), ...]``: every row
        #: slot that mirrors this pair, across all ladders, pre-bound when
        #: the row is built so a mutation writes them without searching.
        self._slots: Dict[Tuple[str, float],
                          List[Tuple[EstimateRows, List[float], int]]] = {}
        #: Factors every estimate is multiplied by, in order (:meth:`skew`).
        self._skew: Tuple[float, ...] = ()

    def mu_rows(self, freqs: Tuple[float, ...]) -> EstimateRows:
        """The live ``workload -> row`` table for one frequency ladder,
        shared by every scheduler built on this estimator with it."""
        rows = self._rows.get(freqs)
        if rows is None:
            rows = self._rows[freqs] = EstimateRows(
                _weakly(self.estimate), freqs, _weakly(self._bind_row))
        return rows

    def _bind_row(self, workload: str, freqs: Tuple[float, ...],
                  row: List[float]) -> None:
        slots = self._slots
        table = self._rows[freqs]
        for index, freq_ghz in enumerate(freqs):
            slots.setdefault((workload, freq_ghz), []).append(
                (table, row, index))

    def _mutated(self, key: Tuple[str, float],
                 tracker: SlidingWindowPercentile) -> None:
        """Bring every row slot mirroring ``key`` up to date.  One
        tracker changed, so every other slot of every row is current."""
        slots = self._slots.get(key)
        if slots is not None:
            value = tracker.value()
            for factor in self._skew:
                value *= factor
            for table, row, index in slots:
                before = rising_pairs(row)
                row[index] = value
                table.rising += rising_pairs(row) - before

    def _tracker(self, key: Tuple[str, float]) -> SlidingWindowPercentile:
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = SlidingWindowPercentile(self.window, self.percentile)
            self._trackers[key] = tracker
        return tracker

    def observe(self, workload: str, freq_ghz: float,
                execution_seconds: float) -> None:
        """Record one measured execution time.

        The measurement is attributed to the frequency in effect at
        dispatch, as in the prototype (a transaction occasionally spans
        a frequency change; the sliding window absorbs the noise).
        """
        key = (workload, freq_ghz)
        tracker = self._tracker(key)
        if tracker.observe(execution_seconds):
            self._mutated(key, tracker)

    def fill(self, workload: str, freq_ghz: float,
             values: Sequence[float]) -> None:
        """Record ``values`` in order, publishing the row slot once
        (how the harness's training phase fills a window)."""
        key = (workload, freq_ghz)
        tracker = self._tracker(key)
        tracker.fill(values)
        self._mutated(key, tracker)

    def estimate(self, workload: str, freq_ghz: float) -> float:
        """``mu(c, f)``: predicted execution time in seconds (0 if
        unseen), times each factor of the current :meth:`skew`."""
        tracker = self._trackers.get((workload, freq_ghz))
        if tracker is None:
            return 0.0
        value = tracker.value()
        for factor in self._skew:
            value *= factor
        return value

    def skew(self, factors: Sequence[float]) -> None:
        """From now on, multiply every estimate by ``factors`` in order
        (``()`` ends the skew), and republish every row slot to match.
        Observations and training still feed the unscaled windows."""
        self._skew = tuple(factors)
        estimate = self.estimate
        for freqs, table in self._rows.items():
            rising = 0
            for workload, row in table.items():
                row[:] = [estimate(workload, f) for f in freqs]
                rising += rising_pairs(row)
            table.rising = rising

    def prime(self, workload: str, freq_ghz: float, value: float,
              count: int = 1) -> None:
        """Seed a tracker with ``count`` copies of ``value``."""
        self.fill(workload, freq_ghz, [value] * count)

    def observation_count(self, workload: str, freq_ghz: float) -> int:
        tracker = self._trackers.get((workload, freq_ghz))
        return tracker.observations if tracker is not None else 0

    def pairs(self) -> List[Tuple[str, float]]:
        """All (workload, frequency) pairs observed so far (sorted)."""
        return sorted(self._trackers)
