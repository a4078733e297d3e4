"""Execution-time estimation (paper Section 3.2).

POLARIS predicts the execution time ``mu(c, f)`` of a workload-``c``
transaction at frequency ``f`` as the p-th percentile of the measured
execution times over a sliding window of the ``S`` most recent
workload-``c`` transactions that ran at frequency ``f``.  The paper
uses ``S = 1000`` and ``p`` in [95, 99] (95 for most experiments) and
adapts Haerdle & Steiger's running-median maintenance to arbitrary
percentiles.

:class:`SlidingWindowPercentile` keeps the window in two structures: a
ring buffer in arrival order (for eviction) and a sorted *tail* (for
the order statistic).  The tail holds every window value at or above a
pivot; the values below it are only counted.  POLARIS reads a high
percentile, so on a full window of ``S = 1000`` at p95 the tail is
about 130 values: nine observations in ten compare against the pivot
and bump a counter, and the tenth does a ``bisect``/``del``/``insort``
on that short list instead of on all 1,000 slots.  The tail is rebuilt
from the ring buffer with one sort when the statistic's rank falls
below it (its values drifted down) or it grows past a cap (they drifted
up).  On a stationary stream that is rare: measured on lognormal
draws, no rebuild in 200,000 observations at ``S = 1000`` and p90,
p95 or p99, and one per 4,000 at ``S = 50``, p99.  A percentile low
enough that the tail would be most of the window (p50) keeps the whole
window as the tail and never rebuilds, which is the flat sorted list
this replaced (DESIGN.md section 5, decision 10 (c)).  The percentile
itself is cached and only recomputed after the window changes, because
POLARIS reads estimates far more often than it observes.

**The same-side rule.**  On a full window the percentile's rank is
fixed, so when the evicted and the inserted value lie *strictly* on the
same side of the current percentile the element at that rank is the
same element.  :meth:`SlidingWindowPercentile.observe` returns whether
the statistic can have moved, and the estimator recomputes and
publishes only then (a tie, a growing window or a stale memo always
does); about one in-run observation in ten moves its p95.
:meth:`ExecutionTimeEstimator.train` loads a workload's training
columns, one per frequency, into empty windows with one sort.

:class:`ListSlidingWindowPercentile` is the reference oracle: no tail,
no memo, no same-side rule and no ``fill``, so the property tests can
assert that those four shortcuts change no ``value()``.

**Estimate rows.**  POLARIS scales over one P-state set, so an
estimator serves one frequency ladder, fixed by the first scheduler
built on it (:meth:`ExecutionTimeEstimator.mu_rows`; a scheduler with
another ladder is a ``ValueError``).  For that ladder it keeps one
plain ``workload -> row`` dict, ``row[j] == estimate(c, freqs[j])``,
and patches the one slot a mutation moves.  The trackers stay keyed by
``(workload, frequency)``: an observation made before any scheduler
exists, or at a frequency off the ladder, patches no row.

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
from typing import Deque, Dict, List, Optional, Sequence, Tuple

DEFAULT_WINDOW = 1000
DEFAULT_PERCENTILE = 95.0


class SlidingWindowPercentile:
    """Running p-th percentile over the last ``window`` observations."""

    __slots__ = ("window", "percentile", "_order", "_tail", "_pivot",
                 "_below", "_keep", "_cap", "observations",
                 "_cached_value", "_cached_at")

    def __init__(self, window: int = DEFAULT_WINDOW,
                 percentile: float = DEFAULT_PERCENTILE):
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        self.window = window
        self.percentile = percentile
        self._order: Deque[float] = deque()
        #: The window's values at or above ``_pivot``, in sorted order;
        #: ``_below`` counts the rest.  A pivot of 0.0 admits every
        #: value, so the tail is then the whole sorted window.
        self._tail: List[float] = []
        self._pivot = 0.0
        self._below = 0
        # On a full window ``top`` values sit at or above the statistic.
        # A rebuild keeps twice that plus sqrt(window) of slack below
        # it, so on a stationary stream the count of smaller values
        # must drift by three standard deviations (S = 50, p99) to
        # eight (S = 1000, p95) before the rank leaves the tail; twice
        # the kept length caps its growth.
        top = window - max(0, math.ceil(percentile / 100.0 * window) - 1)
        self._keep = 2 * top + math.isqrt(window)
        self._cap = 2 * self._keep
        self.observations = 0
        #: value() memo, keyed by the observation count it was computed
        #: at --- observe() already bumps the counter, so invalidation
        #: costs the hot path nothing.
        self._cached_value = 0.0
        self._cached_at = 0

    def _partition(self, ordered: List[float]) -> None:
        """Make the sorted window ``ordered`` the tail from about
        ``_keep`` values below the top, never above the statistic's
        index; ties with the pivot stay in the tail."""
        n = len(ordered)
        lo = min(n - self._keep,
                 math.ceil(self.percentile / 100.0 * n) - 1)
        if lo > 0:
            lo = bisect_left(ordered, ordered[lo])
        if lo > 0:
            self._pivot = ordered[lo]
            self._tail = ordered[lo:]
            self._below = lo
        else:
            self._pivot = 0.0
            self._tail = ordered
            self._below = 0

    def observe(self, value: float) -> bool:
        """Add a measurement, evicting the oldest beyond the window.
        Returns whether :meth:`value` can have moved (the same-side
        rule of the module docstring); False keeps the memo valid."""
        # ``not >=`` rather than ``<``: NaN fails every comparison, and
        # one NaN in the tail corrupts every later bisect.
        if not value >= 0.0:
            raise ValueError("execution times must be non-negative numbers")
        observations = self.observations
        self.observations = observations + 1
        order = self._order
        pivot = self._pivot
        below = self._below
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
            if old < pivot:
                below -= 1
            else:
                tail = self._tail
                del tail[bisect_left(tail, old)]
        order.append(value)
        if value < pivot:
            self._below = below + 1
        else:
            self._below = below
            tail = self._tail
            insort(tail, value)
            if len(tail) > self._cap:
                self._partition(sorted(order))
        return moved

    def fill(self, values: Sequence[float]) -> None:
        """``for v in values: observe(v)``, all or nothing on a bad
        value, in one sort when the window is empty and they fit it."""
        if not all(value >= 0.0 for value in values):
            raise ValueError("execution times must be non-negative numbers")
        self.load(values, sorted(values))

    def load(self, values: Sequence[float], ordered: List[float]) -> None:
        """:meth:`fill` of checked ``values``; ``ordered``, the same float
        objects sorted, is partitioned into an empty window's tail."""
        if self._order or len(values) > self.window:
            for value in values:
                self.observe(value)
            return
        self._partition(ordered)
        self._order.extend(values)
        self.observations += len(values)

    def value(self) -> float:
        """Current percentile estimate (0.0 when no observations yet).

        Memoized per window state: POLARIS calls ``estimate()`` once per
        (queued request x frequency) inside SetProcessorFreq, so reads
        vastly outnumber updates.  A rank that fell below the tail
        rebuilds it from the ring buffer with one sort.
        """
        observations = self.observations
        if self._cached_at == observations:
            return self._cached_value
        n = len(self._order)
        if n == 0:
            result = 0.0
        else:
            index = max(0, math.ceil(self.percentile / 100.0 * n) - 1)
            if index < self._below:
                self._partition(sorted(self._order))
            result = self._tail[index - self._below]
        self._cached_value = result
        self._cached_at = observations
        return result

    def __len__(self) -> int:
        return len(self._order)

    @property
    def full(self) -> bool:
        return len(self._order) == self.window


class ListSlidingWindowPercentile:
    """The plain sliding-window percentile (reference oracle).

    Keeps the whole window sorted and recomputes :meth:`value` from it
    on every call, so property tests can assert that
    :class:`SlidingWindowPercentile`'s tail, memo, same-side rule and
    :meth:`~SlidingWindowPercentile.fill` are observation-for-observation
    invisible.
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


class ExecutionTimeEstimator:
    """The full ``mu(c, f)`` table: one percentile tracker per pair.

    The estimator also owns the *estimate rows* SetProcessorFreq reads
    (:meth:`mu_rows`, module docstring), one identity-stable list per
    workload.  A reader that holds a row --- each queued request
    carries its workload's --- never validates or rebuilds anything; one
    that meets a workload with no row asks :meth:`row` to build it.

    ``rising`` is :func:`rising_pairs` summed over the rows, kept by
    whatever writes a slot (:meth:`row`, ``_mutated`` and :meth:`skew`;
    simsan recounts it as ``rows-falling``).  Zero means every row is
    non-increasing below the top level --- the licence
    ``select_frequency`` needs to start its walk above the floor.  The
    top slot breaks the order most often (p95s of separately filled
    windows) and the walk never needs it, so it is not counted.

    :meth:`skew` scales every estimate by a list of factors without an
    observation (repro.faults' misprediction windows): the windows keep
    measuring honestly, and only what the scheduler reads is skewed.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 percentile: float = DEFAULT_PERCENTILE):
        self.window = window
        self.percentile = percentile
        self._trackers: Dict[Tuple[str, float], SlidingWindowPercentile] = {}
        #: The ladder the rows span, fixed by the first :meth:`mu_rows`.
        self._freqs: Optional[Tuple[float, ...]] = None
        #: ``freq -> index`` into a row, for the slot a mutation patches.
        self._slot: Dict[float, int] = {}
        self._rows: Dict[str, List[float]] = {}
        self.rising = 0
        #: Factors every estimate is multiplied by, in order (:meth:`skew`).
        self._skew: Tuple[float, ...] = ()

    def mu_rows(self, freqs: Tuple[float, ...]) -> Dict[str, List[float]]:
        """The live ``workload -> row`` table over ``freqs``, shared by
        every scheduler built on this estimator.  The first call fixes
        the ladder; one with another ladder is a ``ValueError``."""
        if self._freqs is None:
            self._freqs = freqs
            self._slot = {freq_ghz: j for j, freq_ghz in enumerate(freqs)}
        elif freqs != self._freqs:
            raise ValueError(f"this estimator's rows span the ladder "
                             f"{self._freqs}, not {freqs}")
        return self._rows

    def row(self, workload: str) -> List[float]:
        """``workload``'s live row, built on first request."""
        row = self._rows.get(workload)
        if row is None:
            estimate = self.estimate
            row = self._rows[workload] = [estimate(workload, f)
                                          for f in self._freqs]
            self.rising += rising_pairs(row)
        return row

    def _mutated(self, workload: str, freq_ghz: float,
                 tracker: SlidingWindowPercentile) -> None:
        """Bring the row slot mirroring ``(workload, freq_ghz)`` up to
        date.  One tracker changed, so every other slot is current."""
        row = self._rows.get(workload)
        index = self._slot.get(freq_ghz)
        if row is not None and index is not None:
            value = tracker.value()
            for factor in self._skew:
                value *= factor
            before = rising_pairs(row)
            row[index] = value
            self.rising += rising_pairs(row) - before

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
        tracker = self._tracker((workload, freq_ghz))
        if tracker.observe(execution_seconds):
            self._mutated(workload, freq_ghz, tracker)

    def train(self, workload: str, work: Sequence[float],
              freqs: Sequence[float]) -> None:
        """Fill ``(workload, f)``'s window with ``[w / f for w in work]``
        for each ``f`` in ``freqs`` (the training phase), publishing each
        row slot once.  Dividing by a positive frequency keeps the order,
        so one sort gives every window's sorted list."""
        if not all(gcycles >= 0.0 for gcycles in work):
            raise ValueError("execution times must be non-negative numbers")
        order = sorted(range(len(work)), key=work.__getitem__)
        for freq_ghz in freqs:
            column = [gcycles / freq_ghz for gcycles in work]
            tracker = self._tracker((workload, freq_ghz))
            tracker.load(column, list(map(column.__getitem__, order)))
            self._mutated(workload, freq_ghz, tracker)

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
        rising = 0
        for workload, row in self._rows.items():
            row[:] = [estimate(workload, f) for f in self._freqs]
            rising += rising_pairs(row)
        self.rising = rising

    def prime(self, workload: str, freq_ghz: float, value: float,
              count: int = 1) -> None:
        """Seed a tracker with ``count`` copies of ``value``."""
        tracker = self._tracker((workload, freq_ghz))
        tracker.fill([value] * count)
        self._mutated(workload, freq_ghz, tracker)

    def observation_count(self, workload: str, freq_ghz: float) -> int:
        tracker = self._trackers.get((workload, freq_ghz))
        return tracker.observations if tracker is not None else 0

    def pairs(self) -> List[Tuple[str, float]]:
        """All (workload, frequency) pairs observed so far (sorted)."""
        return sorted(self._trackers)
