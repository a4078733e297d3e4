"""SetProcessorFreq against a literal Figure-2 oracle, under mutation.

``PolarisScheduler.select_frequency`` keeps one scalar q-hat and reads
estimates off rows that ride on the queued requests; the estimator
patches those rows in place on every ``observe``/``prime``.  The oracle
below is the figure as printed: one running sum per frequency,
``estimate()`` called per item, O(|Q| * |F|).  Both perform the same
left-fold additions, so selected frequency and items scanned must be
*equal*, not close --- on non-monotone mu vectors, with mutations
interleaved between selections, requests migrating between schedulers,
two ladders on one estimator, and a scheduler built after rows and
trackers already exist.

The walk may start above the floor, one level under the scheduler's
last answer, when every row is non-increasing below the top level.  The
licence for that is tested here as properties: the mu vectors are drawn
falling, rising only at the top slot (the shape real training produces)
or independent, and mutations break and heal the order mid-sequence, so
selections are reached that were confirmed from the hint, redone from
the floor, and never hinted (counted by the test double, below); and
every selection is repeated with the hint forced to each level in turn,
because the hint is advice --- no value of it may change an answer.

Schedulers are built with ``sanitize=None`` in the main test, so running
this file under ``REPRO_SIMSAN=1`` (CI does) also executes the
``mu-row-fresh``, ``rows-falling`` and ``hint-exact`` invariants on
every selection.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import SimulationInvariantError
from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.variants import PolarisFifoScheduler
from repro.core.workload import Workload

LADDER_A = (1.2, 1.6, 2.0, 2.4, 2.8)
#: Shares 1.6 and 2.8 with LADDER_A, so one observation patches a slot
#: in both ladders' rows; 0.8 and 2.2 belong to this ladder alone.
LADDER_B = (0.8, 1.6, 2.2, 2.8)
WORKLOADS = ("a", "b", "c")
ALL_FREQS = sorted(set(LADDER_A) | set(LADDER_B))


def figure2(frequencies, estimate, now, running, running_elapsed, queue):
    """Figure 2 as printed.  Returns ``(selected, items_scanned)``."""
    nf = len(frequencies)
    if running is not None:
        cumulative = [max(0.0, estimate(running.workload_name, f)
                          - running_elapsed) for f in frequencies]
        chosen = nf - 1
        for j in range(nf):
            if now + cumulative[j] <= running.deadline:
                chosen = j
                break
    else:
        cumulative = [0.0] * nf
        chosen = 0
    scanned = 0
    for request in queue:
        scanned += 1
        mu = [estimate(request.workload_name, f) for f in frequencies]
        if now + cumulative[chosen] + mu[chosen] > request.deadline:
            while chosen < nf - 1:
                chosen += 1
                if now + cumulative[chosen] + mu[chosen] \
                        <= request.deadline:
                    break
            if chosen == nf - 1:
                break  # line 14
        for j in range(nf):
            cumulative[j] += mu[j]
    return frequencies[chosen], scanned


def counting(scheduler_class):
    """A test double that records the level each walk starts at, and
    has the scheduler explain its decisions (for the floor)."""

    class Counting(scheduler_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.trace_decisions = True
            self.starts = []

        def _walk(self, now, live, mu0, e0, chosen):
            self.starts.append(chosen)
            return super()._walk(now, live, mu0, e0, chosen)

    return Counting


CountingPolaris = counting(PolarisScheduler)
CountingFifo = counting(PolarisFifoScheduler)


def path_taken(scheduler):
    """Which way the last selection went: ``unhinted`` (walked from the
    floor), ``hinted`` (started above it and escalated, so confirmed),
    or ``redone`` (started above it, never escalated, walked again)."""
    floor = scheduler.frequencies.index(
        scheduler.last_decision["floor_ghz"])
    if scheduler.starts[0] == floor:
        assert scheduler.starts == [floor]
        return "unhinted"
    # simsan's ``hint-exact`` re-derivation is one more floor walk.
    walks = len(scheduler.starts) - bool(scheduler.sanitize)
    assert scheduler.starts[1:] == [floor] * (len(scheduler.starts) - 1)
    return "redone" if walks == 2 else "hinted"


class Cell:
    """One scheduler plus the request it is 'running'."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.running = None

    def requests(self):
        held = list(self.scheduler.queue)
        if self.running is not None:
            held.append(self.running)
        return held


def assert_rows_fresh(estimator, cells):
    for cell in cells:
        freqs = cell.scheduler.frequencies
        table = estimator.mu_rows(freqs)
        for request in cell.requests():
            name = request.workload_name
            assert request.mu is table[name]
            assert request.mu == [estimator.estimate(name, f)
                                  for f in freqs]


def check_selection(estimator, cell, now, elapsed, reached=None):
    """The selection as the scheduler's own hint has it, then with the
    hint forced to every level: all equal Figure 2, and each other on
    the whole decision record."""
    scheduler = cell.scheduler
    expected = figure2(scheduler.frequencies, estimator.estimate, now,
                       cell.running, elapsed, list(scheduler.queue))
    decisions = []
    for hint in (None, *range(len(scheduler.frequencies))):
        if hint is not None:
            scheduler._hint = hint
        before = scheduler.queue_items_scanned
        scheduler.starts = []
        selected = scheduler.select_frequency(now, cell.running, elapsed)
        assert (selected,
                scheduler.queue_items_scanned - before) == expected, hint
        decisions.append(scheduler.last_decision)
        if reached is not None:
            reached[path_taken(scheduler)] += 1
    assert all(decision == decisions[0] for decision in decisions)


seconds = st.floats(min_value=0.0, max_value=0.05)
estimates = st.floats(min_value=0.0, max_value=0.02)
#: (workload, arrival, latency target): sixteen of these queue 0.16 s of
#: predicted work against deadlines inside 0.13 s, so walks escalate.
queued = st.tuples(st.sampled_from(WORKLOADS), seconds,
                   st.floats(min_value=1e-4, max_value=0.08))
which = st.integers(min_value=0, max_value=3)
operation = st.one_of(
    st.tuples(st.just("observe"), st.sampled_from(WORKLOADS),
              st.sampled_from(ALL_FREQS), estimates),
    st.tuples(st.just("prime"), st.sampled_from(WORKLOADS),
              st.sampled_from(ALL_FREQS), estimates,
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("fill"), st.sampled_from(WORKLOADS),
              st.sampled_from(ALL_FREQS),
              st.lists(estimates, max_size=6)),
    # Refill every window of one workload with base / f: whatever broke
    # the falling order of its rows, this heals it.
    st.tuples(st.just("heal"), st.sampled_from(WORKLOADS), estimates),
    st.tuples(st.just("enqueue"), which, queued),
    st.tuples(st.just("next"), which),
    st.tuples(st.just("migrate"), which, which),
    st.tuples(st.just("select"), which, seconds,
              st.floats(min_value=0.0, max_value=0.01)),
    st.tuples(st.just("build-late")),
)


def shaped(values, shape):
    """``values`` (one per workload x frequency) rearranged per workload:
    ``falling`` in frequency; ``top-rises`` falling except that the top
    slot (2.8 GHz, the last level of both ladders) holds the largest ---
    NewOrder's trained shape; ``independent`` as drawn, which no real
    training phase produces."""
    width = len(ALL_FREQS)
    for at in range(0, len(values), width):
        row = values[at:at + width]
        if shape != "independent":
            row.sort(reverse=True)
        if shape == "top-rises":
            row.append(row.pop(0))
        yield from row


def test_select_frequency_equals_figure2_under_mutation():
    reached = Counter()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(estimates,
                           min_size=len(WORKLOADS) * len(ALL_FREQS),
                           max_size=len(WORKLOADS) * len(ALL_FREQS)),
           shape=st.sampled_from(["falling", "top-rises", "independent"]),
           queues=st.lists(st.lists(queued, max_size=16),
                           min_size=4, max_size=4),
           operations=st.lists(operation, max_size=40),
           window=st.integers(min_value=1, max_value=5))
    def run(values, shape, queues, operations, window):
        estimator = ExecutionTimeEstimator(window=window, percentile=95.0)
        slots = shaped(values, shape)
        for name in WORKLOADS:
            for freq in ALL_FREQS:
                estimator.observe(name, freq, next(slots))
        # The argument for the hint never uses EDF order: FIFO too.
        cells = [Cell(CountingPolaris(LADDER_A, estimator)),
                 Cell(CountingFifo(LADDER_A, estimator)),
                 Cell(CountingPolaris(LADDER_B, estimator)),
                 Cell(CountingFifo(LADDER_B, estimator))]
        for target, requests in zip(cells, queues):
            for name, arrival, latency in requests:
                target.scheduler.enqueue(
                    Request(Workload(name, latency), name, arrival, 1.0))
            check_selection(estimator, target, 0.02, 0.0, reached)
            target.running = target.scheduler.next_request()
            check_selection(estimator, target, 0.02, 0.001, reached)

        def cell(index):
            return cells[index % len(cells)]

        for op in operations:
            kind = op[0]
            if kind == "observe":
                estimator.observe(*op[1:])
            elif kind == "prime":
                estimator.prime(*op[1:])
            elif kind == "fill":
                estimator.fill(*op[1:])
            elif kind == "heal":
                for freq in ALL_FREQS:
                    estimator.prime(op[1], freq, op[2] / freq, count=window)
            elif kind == "enqueue":
                _, index, (name, arrival, latency) = op
                cell(index).scheduler.enqueue(
                    Request(Workload(name, latency), name, arrival, 1.0))
            elif kind == "next":
                target = cell(op[1])
                target.running = target.scheduler.next_request()
            elif kind == "migrate":
                moved = cell(op[1]).scheduler.next_request()
                if moved is not None:
                    cell(op[2]).scheduler.enqueue(moved)
            elif kind == "build-late":
                # Rows and trackers exist by now; a new scheduler joins
                # the ladder's table, and one on the other ladder too.
                for ladder in (LADDER_A, LADDER_B):
                    late = Cell(CountingPolaris(ladder, estimator))
                    donor = cells[0].scheduler.next_request()
                    if donor is not None:
                        late.scheduler.enqueue(donor)
                    cells.append(late)
            else:
                _, index, now, elapsed = op
                check_selection(estimator, cell(index), now, elapsed,
                                reached)
            assert_rows_fresh(estimator, cells)
        for target in cells:
            check_selection(estimator, target, 0.01, 0.0, reached)
            check_selection(estimator, target, 0.03, 0.002, reached)

    run()
    assert reached["hinted"] and reached["redone"] and reached["unhinted"]


@settings(max_examples=60, deadline=None)
@given(queue=st.lists(queued, max_size=20),
       values=st.lists(estimates,
                       min_size=len(WORKLOADS) * len(LADDER_A),
                       max_size=len(WORKLOADS) * len(LADDER_A)),
       now=seconds, scale=st.floats(min_value=0.5, max_value=2.0))
def test_rowless_estimator_takes_the_same_walk(queue, values, now, scale):
    """An estimator proxy with no ``mu_rows`` (the faults skew wrapper's
    shape) goes through per-call rows and the same loop, from the floor
    every time; its estimates may move between calls with no observation
    at all."""

    class Proxy:
        def __init__(self, inner):
            self.inner = inner
            self.scale = 1.0

        def estimate(self, workload, freq):
            return self.inner.estimate(workload, freq) * self.scale

    inner = ExecutionTimeEstimator(window=1, percentile=100.0)
    slots = iter(values)
    for name in WORKLOADS:
        for freq in LADDER_A:
            inner.observe(name, freq, next(slots))
    proxy = Proxy(inner)
    target = Cell(CountingPolaris(LADDER_A, proxy, sanitize=True))
    for name, arrival, latency in queue:
        target.scheduler.enqueue(
            Request(Workload(name, latency), name, arrival, 1.0))
    target.running = target.scheduler.next_request()
    reached = Counter()
    check_selection(proxy, target, now, 0.001, reached)
    proxy.scale = scale
    check_selection(proxy, target, now, 0.001, reached)
    # Per-call snapshot tables are never hinted, whatever the hint says.
    assert set(reached) == {"unhinted"}


def _sanitized_cell():
    estimator = ExecutionTimeEstimator(window=1, percentile=100.0)
    for freq in LADDER_A:
        estimator.observe("a", freq, 1e-3)
    scheduler = PolarisScheduler(LADDER_A, estimator, sanitize=True)
    for arrival in (0.0, 0.001, 0.002):
        scheduler.enqueue(Request(Workload("a", 1.0), "a", arrival, 1.0))
    running = scheduler.next_request()
    assert scheduler.select_frequency(0.0, running, 0.0) == LADDER_A[0]
    return estimator, scheduler, running


@pytest.mark.parametrize("victim", ["running", "queued"])
def test_simsan_fires_on_a_row_that_is_not_the_estimators(victim):
    _, scheduler, running = _sanitized_cell()
    request = running if victim == "running" \
        else next(iter(scheduler.queue))
    request.mu = list(request.mu)  # equal values, wrong object
    with pytest.raises(SimulationInvariantError) as exc:
        scheduler.select_frequency(0.0, running, 0.0)
    assert exc.value.invariant == "mu-row-fresh"


def test_simsan_fires_on_a_row_the_estimator_did_not_patch():
    estimator, scheduler, running = _sanitized_cell()
    # A mutation that bypasses observe()/prime() leaves the row behind.
    estimator._trackers[("a", LADDER_A[2])].observe(5e-3)
    with pytest.raises(SimulationInvariantError) as exc:
        scheduler.select_frequency(0.0, running, 0.0)
    assert exc.value.invariant == "mu-row-fresh"
    assert exc.value.context["workload"] == "a"
