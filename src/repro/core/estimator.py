"""Execution-time estimation (paper Section 3.2).

POLARIS predicts the execution time ``mu(c, f)`` of a workload-``c``
transaction at frequency ``f`` as the p-th percentile of the measured
execution times over a sliding window of the ``S`` most recent
workload-``c`` transactions that ran at frequency ``f``.  The paper
uses ``S = 1000`` and ``p`` in [95, 99] (95 for most experiments) and
adapts Haerdle & Steiger's running-median maintenance to arbitrary
percentiles.

:class:`SlidingWindowPercentile` keeps the window in two structures: a
ring buffer in arrival order (for eviction) and a **chunked sorted
list** (for the order statistic).  The chunked structure splits the
sorted window into O(sqrt(S)) runs of O(sqrt(S)) elements each, so an
insert or evict shifts one short run instead of the whole window ---
O(sqrt(S)) per observation against the O(S) memmove a single flat list
pays.  The full-window steady state (one evict + one insert per
observation) goes through :meth:`_ChunkedSortedList.replace`, which
resolves both in a single pass and reuses the evicted slot when the new
value lands in the same run.  The percentile itself is cached and only
recomputed after the window changes, because POLARIS reads estimates
far more often than it observes.

**The same-side rule.**  On a full window the percentile's rank is
fixed, so when the evicted and the inserted value lie *strictly* on the
same side of the current percentile the element at that rank is the
same element.  :meth:`SlidingWindowPercentile.observe` returns whether
the statistic can have moved, and the estimator recomputes and
publishes only then (a tie, a growing window or a stale memo always
does); about one in-run observation in ten moves its p95.
:meth:`SlidingWindowPercentile.fill` loads a training column into an
empty window with one sort: run boundaries differ from sequential
inserts, the multiset, eviction order and every ``value()`` do not.

:class:`ListSlidingWindowPercentile` preserves the original flat-list
implementation as the reference oracle: the property tests assert the
chunked structure is value-for-value identical to it on random streams,
and the microbenchmarks race the two.

Unobserved pairs estimate **zero**: "the execution time estimates for
all workloads at all frequencies can be initialized to zero.  This will
cause POLARIS to gradually explore and initialize its estimators for
unexplored frequencies, from lowest to highest" (Section 6.1).  The
experiment harness reproduces the paper's explicit training phase that
fills every window before measuring.
"""

from __future__ import annotations

import bisect
import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from operator import lt
from typing import Deque, Dict, List, Sequence, Tuple

DEFAULT_WINDOW = 1000
DEFAULT_PERCENTILE = 95.0

#: Target run length of the chunked sorted list.  Runs split at twice
#: this size, so steady-state runs hold LOAD..2*LOAD elements.  Tuned on
#: the S=1000 microbenchmark: small enough that the per-run memmove is
#: cheap, large enough that the run directory stays short.
LOAD = 32


class _ChunkedSortedList:
    """A sorted multiset as a directory of short sorted runs.

    ``_runs`` holds the sorted sublists; ``_maxes[i]`` mirrors
    ``_runs[i][-1]`` so membership resolves with one bisect over the
    directory.  All mutating operations keep both in lockstep.
    """

    __slots__ = ("_runs", "_maxes", "_size")

    def __init__(self) -> None:
        self._runs: List[List[float]] = []
        self._maxes: List[float] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, value: float) -> None:
        """Insert ``value``, splitting the target run if it overflows."""
        runs = self._runs
        maxes = self._maxes
        if maxes:
            i = bisect_right(maxes, value)
            if i == len(maxes):
                i -= 1
                run = runs[i]
                run.append(value)
                maxes[i] = value
            else:
                run = runs[i]
                insort(run, value)
            if len(run) > LOAD * 2:
                self._split(i)
        else:
            runs.append([value])
            maxes.append(value)
        self._size += 1

    def remove(self, value: float) -> None:
        """Remove one occurrence of ``value`` (must be present)."""
        maxes = self._maxes
        i = bisect_left(maxes, value)
        run = self._runs[i]
        del run[bisect_left(run, value)]
        self._size -= 1
        if run:
            maxes[i] = run[-1]
        else:
            del self._runs[i]
            del maxes[i]

    def replace(self, old: float, new: float) -> None:
        """Evict ``old`` and insert ``new`` in one pass.

        When ``new`` belongs in the same run that loses ``old`` --- the
        common case for a stationary stream --- the run is edited with a
        single delete + insort and the directory entry refreshed once.
        """
        maxes = self._maxes
        i = bisect_left(maxes, old)
        run = self._runs[i]
        if (i == 0 or new >= maxes[i - 1]) and \
                (new <= maxes[i] or i == len(maxes) - 1):
            del run[bisect_left(run, old)]
            insort(run, new)
            maxes[i] = run[-1]
            return
        self._evict_then_add(i, old, new)

    def _evict_then_add(self, i: int, old: float, new: float) -> None:
        """Slow path of :meth:`replace`: ``new`` lands in a different run."""
        runs = self._runs
        maxes = self._maxes
        run = runs[i]
        j = bisect_left(run, old)
        del run[j]
        if run:
            if j == len(run):
                maxes[i] = run[-1]
        else:
            del runs[i]
            del maxes[i]
        k = bisect_right(maxes, new)
        if k == len(maxes):
            k -= 1
            run = runs[k]
            run.append(new)
            maxes[k] = new
        else:
            run = runs[k]
            insort(run, new)
        if len(run) > LOAD * 2:
            self._split(k)

    def _split(self, i: int) -> None:
        run = self._runs[i]
        tail = run[LOAD:]
        del run[LOAD:]
        self._runs.insert(i + 1, tail)
        self._maxes[i] = run[-1]
        self._maxes.insert(i + 1, tail[-1])

    def kth(self, k: int) -> float:
        """The k-th smallest element (0-based)."""
        size = self._size
        if k >= size:
            raise IndexError(f"rank {k} out of range for size {size}")
        # High percentiles rank near the tail, so walk in from
        # whichever end is closer; the runs concatenate in sorted
        # order from either direction.
        if 2 * k >= size:
            j = size - 1 - k
            for run in reversed(self._runs):
                n = len(run)
                if j < n:
                    return run[n - 1 - j]
                j -= n
        for run in self._runs:
            n = len(run)
            if k < n:
                return run[k]
            k -= n
        raise IndexError(f"rank {k} out of range for size {size}")

    def flatten(self) -> List[float]:
        """All elements in sorted order (diagnostics and tests)."""
        return [v for run in self._runs for v in run]


class SlidingWindowPercentile:
    """Running p-th percentile over the last ``window`` observations."""

    __slots__ = ("window", "percentile", "_order", "_chunks",
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
        self._chunks = _ChunkedSortedList()
        self.observations = 0
        #: value() memo, keyed by the observation count it was computed
        #: at --- observe() already bumps the counter, so invalidation
        #: costs the hot path nothing.
        self._cached_value = 0.0
        self._cached_at = 0

    def observe(self, value: float) -> bool:
        """Add a measurement, evicting the oldest beyond the window.
        Returns whether :meth:`value` can have moved (the same-side
        rule of the module docstring); False keeps the memo valid.

        The full-window path inlines ``_ChunkedSortedList.replace`` ---
        this is the per-transaction hot path and the extra method call
        is measurable at S=1000.
        """
        # ``not >=`` rather than ``<``: NaN fails every comparison, and
        # one NaN in the sorted runs corrupts every later bisect.
        if not value >= 0.0:
            raise ValueError("execution times must be non-negative numbers")
        observations = self.observations
        self.observations = observations + 1
        order = self._order
        chunks = self._chunks
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
            maxes = chunks._maxes
            runs = chunks._runs
            i = bisect_left(maxes, old)
            run = runs[i]
            if (i == 0 or value >= maxes[i - 1]) and \
                    (value <= maxes[i] or i == len(maxes) - 1):
                # Same run loses ``old`` and gains ``value``.
                del run[bisect_left(run, old)]
                insort(run, value)
                maxes[i] = run[-1]
            else:
                j = bisect_left(run, old)
                del run[j]
                if run:
                    if j == len(run):
                        maxes[i] = run[-1]
                else:
                    del runs[i]
                    del maxes[i]
                k = bisect_right(maxes, value)
                if k == len(maxes):
                    k -= 1
                    run = runs[k]
                    run.append(value)
                    maxes[k] = value
                else:
                    run = runs[k]
                    insort(run, value)
                if len(run) > LOAD * 2:
                    chunks._split(k)
        else:
            chunks.add(value)
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
        ordered = sorted(values)
        chunks = self._chunks
        chunks._runs = [ordered[i:i + LOAD]
                        for i in range(0, len(ordered), LOAD)]
        chunks._maxes = [run[-1] for run in chunks._runs]
        chunks._size = len(ordered)
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
        n = self._chunks._size
        if n == 0:
            result = 0.0
        else:
            rank = math.ceil(self.percentile / 100.0 * n)
            result = self._chunks.kth(max(0, rank - 1))
        self._cached_value = result
        self._cached_at = observations
        return result

    @property
    def _sorted(self) -> List[float]:
        """The window's values in sorted order (compatibility shim)."""
        return self._chunks.flatten()

    def __len__(self) -> int:
        return self._chunks._size

    @property
    def full(self) -> bool:
        return self._chunks._size == self.window


class ListSlidingWindowPercentile:
    """The original flat-sorted-list implementation (reference oracle).

    An O(log S) locate plus an O(S) shift per observation.  Retained
    verbatim so property tests can assert the chunked structure above is
    observation-for-observation identical, and so the microbenchmarks
    can race the two implementations.
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
            idx = bisect.bisect_left(self._sorted, oldest)
            self._sorted.pop(idx)
        self._order.append(value)
        bisect.insort(self._sorted, value)

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
    builds), through whatever ``estimate`` callable the table was given,
    and is then the one list object every reader of that workload holds.
    ``bind(c, freqs, row)`` tells the owner of a *live* table about the
    new row so it can keep it current; without it the table is a
    snapshot, valid for as long as ``estimate`` is pure.

    ``rising`` is :func:`rising_pairs` summed over the rows, kept by
    whoever writes a slot (``__missing__``, the estimator's
    ``_mutated``; simsan recounts it as ``rows-falling``).  Zero means
    every row is non-increasing below the top level --- the licence
    ``select_frequency`` needs to start its walk above the floor.  The
    top slot breaks the order most often (p95s of separately filled
    windows) and the walk never needs it, so it is not counted.
    """

    __slots__ = ("_estimate", "_freqs", "_bind", "rising")

    def __init__(self, estimate, freqs: Tuple[float, ...], bind=None):
        super().__init__()
        self._estimate = estimate
        self._freqs = freqs
        self._bind = bind
        self.rising = 0

    def __missing__(self, workload: str) -> List[float]:
        estimate = self._estimate
        row = self[workload] = [estimate(workload, f) for f in self._freqs]
        self.rising += rising_pairs(row)
        if self._bind is not None:
            self._bind(workload, self._freqs, row)
        return row


class ExecutionTimeEstimator:
    """The full ``mu(c, f)`` table: one percentile tracker per pair.

    The estimator also owns the *estimate rows* SetProcessorFreq reads
    (:meth:`mu_rows`): per frequency ladder, one identity-stable list
    per workload with ``row[j] == estimate(c, freqs[j])`` at all times.
    Every mutation that moves a percentile patches the one slot it
    changes, so a reader that holds a row --- each queued request
    carries its workload's --- never validates or rebuilds anything.
    Estimator *proxies* whose estimates move without an observation
    (repro.faults skew windows) expose no ``mu_rows`` and are read
    through ``estimate`` instead.
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

    def mu_rows(self, freqs: Tuple[float, ...]) -> EstimateRows:
        """The live ``workload -> row`` table for one frequency ladder,
        shared by every scheduler built on this estimator with it."""
        rows = self._rows.get(freqs)
        if rows is None:
            rows = self._rows[freqs] = EstimateRows(
                self.estimate, freqs, self._bind_row)
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
        """``mu(c, f)``: predicted execution time in seconds (0 if unseen)."""
        tracker = self._trackers.get((workload, freq_ghz))
        if tracker is None:
            return 0.0
        return tracker.value()

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
