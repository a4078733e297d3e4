"""Latency and failure-rate accounting.

The paper's performance metric is the **failure rate**: "the percentage
of transactions that do not finish execution before their deadline"
(Section 6.1), tracked overall and per workload (the gold/silver
experiment of Section 6.5 needs the split).  The recorder also keeps
execution-time statistics per transaction type and dispatch frequency,
which regenerate the paper's Figure 3 table.

**The log.**  Everything a :class:`LatencyRecorder` keeps that grows
with the run is one columnar log, a row per counted outcome in the
order the outcomes happen (for completions, completion order).  Each
column is a list of arrays of at most :data:`CHUNK_ROWS` rows:

==============  ==============  ======================================
column          type            per row
==============  ==============  ======================================
``arrivals``    ``array('d')``  arrival instant
``finishes``    ``array('d')``  finish instant (NaN: never finished)
``dispatches``  ``array('d')``  dispatch instant (NaN: never finished)
``keys``        ``array('H')``  index into ``key_table``: the interned
                                (workload, txn type, dispatch
                                frequency)
``outcomes``    ``array('B')``  :data:`MET`, :data:`LATE`,
                                :data:`REJECTED` or :data:`LOST`
``sites``       ``array('H')``  where it happened: the fleet's shard,
                                0 on a single server
==============  ==============  ======================================

Fixed-size chunks rather than one array per column: an array grown by
``append`` is reallocated as it goes, and once a first run's columns
are freed glibc serves the next run's from its heap, where the
reallocations fragment it, so a process running one cell after another
peaked 1.1--1.4 MiB higher from the second ``server_governor`` cell on.
Equal-size chunks are recycled whole, and no row is ever copied.

Both instants are kept rather than their difference: a deadline is
``arrival + target``, and ``finish <= arrival + target`` cannot be
re-derived bit for bit from ``finish - arrival``.

The log is the recorder's only state: every read is a view over it,
computed when asked.  The ``total_*`` counts and ``failure_rate`` scan
the outcome column in C; :attr:`~LatencyRecorder.per_workload` and
:meth:`~LatencyRecorder.site_books` (the fleet's per-shard books) tally
(key, outcome) and (site, outcome) pairs; and
:meth:`~LatencyRecorder.latencies_by_workload`,
:meth:`~LatencyRecorder.mean_latency_by_workload`,
:meth:`~LatencyRecorder.missed_under`,
:meth:`~LatencyRecorder.exec_times_by_pair` walk the rows
(:func:`pooled_exec_time_stats` pools the last one's lists, so a
reader of several pools scans once).  A view folds its floats in the order
the per-workload and per-(type, frequency) lists this log replaced held
them --- the group's first row, then log order --- and with ``sum``, as
they did, so every sum is the same sum on every CPython.  A completion costs
one row and no counter: a run reads its counts a handful of times but
completes tens of thousands of transactions.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

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


#: The ``outcomes`` column: finished by the deadline, finished after
#: it, rejected at admission, lost (will never finish).  Every outcome
#: but :data:`MET` is a miss.
MET, LATE, REJECTED, LOST = range(4)

_NAN = float("nan")

#: Rows per chunk of a column: a chunk of ``array('d')`` is 64 KiB,
#: under glibc's default 128 KiB threshold for serving an allocation
#: with its own mapping.
CHUNK_ROWS = 8192

#: Each column's array typecode, in row order.
_TYPECODES = "dddHBH"


def _scan(*columns: List[array]) -> Iterator[tuple]:
    """The rows of ``columns`` in log order."""
    return zip(*map(chain.from_iterable, columns))


@dataclass
class WorkloadStats:
    """Outcome counts of one workload (or, from
    :meth:`LatencyRecorder.site_books`, of one site)."""

    offered: int = 0
    completed: int = 0
    missed: int = 0
    rejected: int = 0
    lost: int = 0

    @property
    def failure_rate(self) -> float:
        """#failed / #offered, the paper's y-axis."""
        if self.offered == 0:
            return 0.0
        return self.missed / self.offered

    def count(self, outcome: int, rows: int) -> None:
        """Add ``rows`` outcomes of one kind."""
        self.offered += rows
        if outcome <= LATE:
            self.completed += rows
        elif outcome == REJECTED:
            self.rejected += rows
        else:
            self.lost += rows
        if outcome != MET:
            self.missed += rows


class LatencyRecorder:
    """Collects per-request outcomes during the measurement window.

    Attach via ``server.add_completion_listener(recorder.on_completion)``
    and :meth:`set_window` to the test phase --- warmup and training
    completions are then ignored, as in the paper's three-phase
    methodology.  A listener for a fleet's shard passes the shard as
    ``site``.
    """

    def __init__(self):
        #: Outcomes count iff the request *arrived* inside [t0, t1) (late
        #: completions of in-window arrivals still count as failures, not
        #: censored); a recorder with no window counts nothing.
        self.window: Optional[Tuple[float, float]] = None
        # -- the log (see the module docstring) ------------------------
        self.arrivals: List[array] = []
        self.finishes: List[array] = []
        self.dispatches: List[array] = []
        self.keys: List[array] = []
        self.outcomes: List[array] = []
        self.sites: List[array] = []
        #: key id -> (workload, txn type, dispatch frequency), in the
        #: order the keys first appear.
        self.key_table: List[Tuple[str, str, Optional[float]]] = []
        self._key_ids: Dict[Tuple[str, str, Optional[float]], int] = {}
        #: The last chunks' ``append``s in row order, bound once per
        #: chunk: a row is appended per completion, and the lookups are
        #: measurable.
        self._append_row: tuple = ()
        #: Rows the last chunks can still take.
        self._room = 0

    # ------------------------------------------------------------------
    def set_window(self, start: float, end: float) -> None:
        """Count only requests arriving in ``[start, end)``."""
        if end <= start:
            raise ValueError("window must have positive length")
        self.window = (start, end)

    def _key_id(self, request: Request) -> int:
        key = (request.workload_name, request.txn_type, request.dispatch_freq)
        key_id = self._key_ids.get(key)
        if key_id is None:
            key_id = self._key_ids[key] = len(self.key_table)
            self.key_table.append(key)
        return key_id

    def _new_chunks(self) -> None:
        columns = (self.arrivals, self.finishes, self.dispatches, self.keys,
                   self.outcomes, self.sites)
        chunks = [array(code) for code in _TYPECODES]
        for column, chunk in zip(columns, chunks):
            column.append(chunk)
        self._append_row = tuple(chunk.append for chunk in chunks)
        self._room = CHUNK_ROWS

    def _unfinished(self, request: Request, site: int, outcome: int) -> None:
        """Log a request that is offered but never finishes: a miss by
        the paper's failure metric."""
        window = self.window
        arrival = request.arrival_time
        if window is None or not window[0] <= arrival < window[1]:
            return
        key_id = self._key_id(request)
        if not self._room:
            self._new_chunks()
        self._room -= 1
        (arrivals, finishes, dispatches, keys, outcomes,
         sites) = self._append_row
        arrivals(arrival)
        finishes(_NAN)
        dispatches(_NAN)
        keys(key_id)
        outcomes(outcome)
        sites(site)

    def on_rejection(self, request: Request, site: int = 0) -> None:
        """Count an admission-control rejection: offered but never
        finishes, so it is a miss by the paper's failure metric."""
        self._unfinished(request, site, REJECTED)

    def on_lost(self, request: Request, site: int = 0) -> None:
        """Count a request that will never finish --- stranded on a dead
        core or in an undrainable queue when a faulted run ends.  Like a
        rejection it is offered-and-missed, so dying-core scenarios
        cannot censor their casualties into a *better* failure rate."""
        self._unfinished(request, site, LOST)

    def on_completion(self, request: Request, site: int = 0) -> None:
        # The window test, the Request deadline property and _key_id are
        # inlined here (same tests, same arithmetic): this runs once per
        # completed transaction and the frames dominate its cost.
        window = self.window
        arrival = request.arrival_time
        if window is None or not window[0] <= arrival < window[1]:
            return
        finish = request.finish_time
        outcome = MET if finish <= request.deadline + 1e-12 else LATE
        key = (request.workload_name, request.txn_type, request.dispatch_freq)
        key_id = self._key_ids.get(key)
        if key_id is None:
            key_id = self._key_id(request)
        if not self._room:
            self._new_chunks()
        self._room -= 1
        (arrivals, finishes, dispatches, keys, outcomes,
         sites) = self._append_row
        arrivals(arrival)
        finishes(finish)
        dispatches(request.dispatch_time)
        keys(key_id)
        outcomes(outcome)
        sites(site)

    # ------------------------------------------------------------------
    # Counts (C scans of the outcome column)
    # ------------------------------------------------------------------
    def _count(self, outcome: int) -> int:
        # bytes.count scans raw bytes; array.count boxes and compares
        # one element at a time (0.06 against 1.1 ms on 72k rows).
        return sum(chunk.tobytes().count(outcome) for chunk in self.outcomes)

    @property
    def total_offered(self) -> int:
        return len(self.outcomes) * CHUNK_ROWS - self._room

    @property
    def total_completed(self) -> int:
        return self.total_offered - self._count(REJECTED) - self._count(LOST)

    @property
    def total_missed(self) -> int:
        return self.total_offered - self._count(MET)

    @property
    def total_rejected(self) -> int:
        return self._count(REJECTED)

    @property
    def total_lost(self) -> int:
        return self._count(LOST)

    @property
    def failure_rate(self) -> float:
        """Overall #failed / #offered."""
        offered = self.total_offered
        if offered == 0:
            return 0.0
        return self.total_missed / offered

    # ------------------------------------------------------------------
    # Views over the log
    # ------------------------------------------------------------------
    @property
    def per_workload(self) -> Dict[str, WorkloadStats]:
        """``workload -> outcome counts``, in the order the workloads
        first appear."""
        table = self.key_table
        stats = {workload: WorkloadStats() for workload, _, _ in table}
        for (key, outcome), rows in Counter(
                _scan(self.keys, self.outcomes)).items():
            stats[table[key][0]].count(outcome, rows)
        return stats

    def workload_failure_rate(self, workload: str) -> float:
        stats = self.per_workload.get(workload)
        return stats.failure_rate if stats is not None else 0.0

    def site_books(self) -> Dict[int, WorkloadStats]:
        """``site -> outcome counts``, in the order the sites first
        appear (a fleet's per-shard books)."""
        books: Dict[int, WorkloadStats] = {}
        for (site, outcome), rows in Counter(
                _scan(self.sites, self.outcomes)).items():
            stats = books.get(site)
            if stats is None:
                stats = books[site] = WorkloadStats()
            stats.count(outcome, rows)
        return books

    def latencies_by_workload(self) -> Dict[str, List[float]]:
        """``workload -> response time of each counted completion``, in
        completion order, for every workload with a completion (in
        :attr:`per_workload` order)."""
        by_name: Dict[str, List[float]] = {
            workload: [] for workload, _, _ in self.key_table}
        # One list per key id: the key's workload's.
        lists = [by_name[workload] for workload, _, _ in self.key_table]
        for key, outcome, arrival, finish in _scan(
                self.keys, self.outcomes, self.arrivals, self.finishes):
            if outcome <= LATE:
                lists[key].append(finish - arrival)
        return {name: latencies for name, latencies in by_name.items()
                if latencies}

    def mean_latency_by_workload(self) -> Dict[str, float]:
        """Mean response time of each workload with a completion.

        One pass gathers each workload's latencies into an
        ``array('d')`` (8 bytes a completion, where
        :meth:`latencies_by_workload`'s boxed floats take 32), and
        ``sum`` adds them, as it added the lists this log replaced: the
        same floats in the same order, so the same mean on every CPython
        (3.12's ``sum`` compensates its rounding, so a running ``+=``
        would not be the same sum)."""
        by_name = {workload: array("d") for workload, _, _ in self.key_table}
        # One append per key id: the key's workload's.
        appends = [by_name[workload].append
                   for workload, _, _ in self.key_table]
        for key, outcome, arrival, finish in _scan(
                self.keys, self.outcomes, self.arrivals, self.finishes):
            if outcome <= LATE:
                appends[key](finish - arrival)
        return {name: sum(latencies) / len(latencies)
                for name, latencies in by_name.items() if latencies}

    def missed_under(self, targets: Mapping[str, float]) -> Dict[str, int]:
        """What each workload's :attr:`WorkloadStats.missed` would read
        had its requests carried the latency target ``targets[name]``:
        the live test's arithmetic over the logged instants, and a
        request that never finished (rejected, lost) misses every
        deadline."""
        missed = dict.fromkeys(
            (workload for workload, _, _ in self.key_table), 0)
        per_key = [(workload, targets[workload])
                   for workload, _, _ in self.key_table]
        for key, outcome, arrival, finish in _scan(
                self.keys, self.outcomes, self.arrivals, self.finishes):
            name, target = per_key[key]
            if outcome > LATE or not finish <= (arrival + target) + 1e-12:
                missed[name] += 1
        return missed

    def exec_times_by_pair(self
                           ) -> Dict[Tuple[str, Optional[float]], List[float]]:
        """Execution times keyed by (txn type, dispatch frequency), in
        the order the pairs first complete: one scan of the log, for a
        reader that needs several of :func:`pooled_exec_time_stats`."""
        pairs = [(txn_type, freq) for _, txn_type, freq in self.key_table]
        times: Dict[Tuple[str, Optional[float]], List[float]] = {}
        for key, outcome, dispatch, finish in _scan(
                self.keys, self.outcomes, self.dispatches, self.finishes):
            if outcome <= LATE:
                pair = pairs[key]
                values = times.get(pair)
                if values is None:
                    values = times[pair] = []
                values.append(finish - dispatch)
        return times


def pooled_exec_time_stats(
        times: Mapping[Tuple[str, Optional[float]], List[float]],
        freq_ghz: Optional[float] = None,
        txn_type: Optional[str] = None) -> Tuple[float, float, int]:
    """(mean, P95, count) of the execution times in ``times`` (from
    :meth:`LatencyRecorder.exec_times_by_pair`) dispatched at
    ``freq_ghz`` (any, if None) of ``txn_type`` (any, if None)."""
    values: List[float] = []
    for (name, freq), pair_times in times.items():
        if txn_type is not None and name != txn_type:
            continue
        if freq_ghz is not None and abs(freq - freq_ghz) > 1e-9:
            continue
        values.extend(pair_times)
    return _mean_p95_count(values)


def _mean_p95_count(values: List[float]) -> Tuple[float, float, int]:
    if not values:
        return (float("nan"), float("nan"), 0)
    mean = sum(values) / len(values)
    return (mean, percentile(values, 95), len(values))
