"""The engine's order contract, checked against a model.

The simulator must fire events in exact ``(time, priority, seq)`` order
and keep its clock and accounting right under random interleavings of
schedule / cancel / reschedule / run(until) / step / peek.  The
reference is :class:`ModelSimulator` below: a plain list re-sorted on
every pop, with cancelled entries skipped --- slow, and too simple to
be wrong in the same way as a heap.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import (
    COMPACTION_MIN_GARBAGE, Event, SimulationError, Simulator,
)


class ModelSimulator:
    """The order contract, spelled out: entries are ``[time, priority,
    seq, callback, cancelled]`` in a plain list, sorted on every pop."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._seq = 0
        self._entries = []

    def schedule(self, delay, callback, priority=0):
        self._seq += 1
        entry = [self.now + delay, priority, self._seq, callback, False]
        self._entries.append(entry)
        return entry

    @staticmethod
    def cancel(entry):
        entry[4] = True

    def _pop(self, until=None):
        self._entries = [e for e in self._entries if not e[4]]
        self._entries.sort(key=lambda e: e[:3])
        if not self._entries or (until is not None
                                 and self._entries[0][0] > until):
            return False
        entry = self._entries.pop(0)
        entry[4] = True  # a later cancel() of a fired event is a no-op
        self.now = entry[0]
        self.events_processed += 1
        entry[3]()
        return True

    def run(self, until=None):
        while self._pop(until):
            pass
        if until is not None:
            self.now = max(self.now, until)

    def step(self):
        return self._pop()

    def peek_time(self):
        return min((e[0] for e in self._entries if not e[4]), default=None)

    def pending_count(self):
        return sum(not e[4] for e in self._entries)


class Driver:
    """Applies one operation trace to one simulator, logging everything
    observable: fire order, clock at fire time, peeks, final state."""

    def __init__(self, sim, cancel=Event.cancel):
        self.sim = sim
        self.cancel = cancel
        self.log = []
        self.handles = []

    def _fire(self, tag, chain_delay, chain_depth):
        self.log.append(("fire", tag, self.sim.now))
        if chain_depth > 0:
            self._schedule(f"{tag}c", chain_delay, 0,
                           chain_delay, chain_depth - 1)

    def _schedule(self, tag, delay, priority, chain_delay, chain_depth):
        event = self.sim.schedule(
            delay, lambda: self._fire(tag, chain_delay, chain_depth),
            priority=priority)
        self.handles.append(event)

    def apply(self, ops):
        for index, op in enumerate(ops):
            kind = op[0]
            if kind == "schedule":
                _, delay, priority, chain_delay, chain_depth = op
                self._schedule(str(index), delay, priority,
                               chain_delay, chain_depth)
            elif kind == "cancel":
                if self.handles:
                    self.cancel(self.handles[op[1] % len(self.handles)])
            elif kind == "reschedule":
                # The POLARIS core pattern: cancel + schedule later.
                if self.handles:
                    victim = self.handles[op[1] % len(self.handles)]
                    self.cancel(victim)
                    self._schedule(f"r{index}", op[2], 0, 0.0, 0)
            elif kind == "run_until":
                self.sim.run(until=self.sim.now + op[1])
                self.log.append(("ran", self.sim.now))
            elif kind == "step":
                self.log.append(("step", self.sim.step(), self.sim.now))
            elif kind == "peek":
                self.log.append(("peek", self.sim.peek_time()))
        self.sim.run()
        self.log.append(("end", self.sim.now, self.sim.events_processed,
                         self.sim.pending_count()))
        return self.log


DELAYS = st.floats(min_value=0.0, max_value=5e-3, allow_nan=False,
                   allow_infinity=False)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS,
                  st.integers(min_value=-5, max_value=5), DELAYS,
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("reschedule"), st.integers(min_value=0), DELAYS),
        st.tuples(st.just("run_until"), DELAYS),
        st.tuples(st.just("step")),
        st.tuples(st.just("peek")),
    ),
    min_size=1, max_size=60)


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_engine_matches_sorted_list_model(ops):
    sim = Simulator()
    assert Driver(sim).apply(ops) == Driver(
        ModelSimulator(), ModelSimulator.cancel).apply(ops)
    assert sim.heap_size() == 0


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_sanitized_trace_is_clean(ops):
    """Every random trace keeps the heap and accounting invariants."""
    sim = Simulator(sanitize=True)
    Driver(sim).apply(ops)
    sim.sanitize_check()


def test_gap_schedule_fires_before_the_parked_head():
    """run(until=...) parks the clock short of the next event; a
    subsequent schedule into the gap must still fire first."""
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, lambda: fired.append("far"))
    sim.run(until=3.0)  # looks at the 5.0 head, pops nothing
    assert sim.now == 3.0
    sim.schedule_at(3.5, lambda: fired.append("gap-late"))
    sim.schedule_at(3.2, lambda: fired.append("gap-early"))
    sim.run()
    assert fired == ["gap-early", "gap-late", "far"]


def test_gap_schedule_keeps_invariants():
    sim = Simulator(sanitize=True)
    sim.schedule_at(5.0, lambda: None)
    sim.run(until=3.0)
    sim.schedule_at(3.5, lambda: None)
    sim.sanitize_check()
    sim.run()
    assert sim.now == 5.0
    assert sim.events_processed == 2


def test_same_time_schedule_mid_callback_keeps_priority_then_seq():
    """An event scheduled *for now* from inside a callback joins the
    same-time group at its (priority, seq) place, ahead of already
    pending same-time events of higher priority number."""
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, lambda: fired.append("urgent"), priority=-1)
        sim.schedule(0.0, lambda: fired.append("last"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "urgent", "second", "last"]


def test_compaction_matches_model():
    logs = []
    for sim, cancel in ((Simulator(), Event.cancel),
                        (ModelSimulator(), ModelSimulator.cancel)):
        fired = []
        for i in range(400):
            event = sim.schedule(1.0 + (i * 31 % 97),
                                 lambda i=i: fired.append(i))
            if i % 4:
                cancel(event)
        sim.run()
        logs.append((fired, sim.events_processed, sim.pending_count()))
    assert logs[0] == logs[1]


def test_compaction_is_in_place_during_run():
    """A running run() holds the heap list: compaction triggered from
    inside a callback must not strand it on a stale copy."""
    sim = Simulator(sanitize=True)
    fired = []

    def churn():
        heap = sim._heap
        for i in range(4 * COMPACTION_MIN_GARBAGE):
            Event.cancel(sim.schedule(1.0 + i,
                                      lambda: fired.append("garbage")))
        assert sim._heap is heap
        assert sim.heap_size() <= COMPACTION_MIN_GARBAGE + 2
        sim.schedule(0.5, lambda: fired.append("kept"))

    sim.schedule(1.0, churn)
    sim.schedule(2.0, lambda: fired.append("tail"))
    sim.run()
    assert fired == ["kept", "tail"]
    assert sim.heap_size() == 0


def test_non_finite_time_rejected():
    """A NaN in a heap compares false against everything and would
    corrupt the order silently, so it must never get in."""
    sim = Simulator()
    sim.run(until=1.0)  # a clock past zero
    for bad in (float("nan"), float("inf"), float("-inf"), -1e-9):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
    assert sim.heap_size() == 0 and sim.pending_count() == 0


# ----------------------------------------------------------------------
# The heap entry and Event.cancel
# ----------------------------------------------------------------------
def test_entry_equality_is_identity():
    """Entries compare by content, and content is unique: ``seq`` within
    one simulator, the simulator itself across two."""
    sim, other = Simulator(), Simulator()
    a = sim.schedule(1.0, None)
    b = sim.schedule(1.0, None)
    twin = other.schedule(1.0, None)  # same (time, priority, seq) as a
    assert a == a and a != b and a != twin
    assert a in [b, a] and [b, twin].count(a) == 0


def test_event_orders_in_c_without_touching_the_callback():
    """The C list compare decides on (time, priority, seq); uncomparable
    callbacks are never reached, and Event adds no Python-level rich
    comparison that would slow every sift step."""
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None, priority=1)
    b = sim.schedule(1.0, lambda: None, priority=0)
    c = sim.schedule(1.0, lambda: None, priority=0)
    assert b < c < a
    for name in ("__lt__", "__le__", "__eq__", "__ne__", "__gt__", "__ge__"):
        assert name not in vars(Event)


#: ``Event.cancel`` calls in :data:`CANCEL_CELL`, counted on the tree
#: whose handles were still ``Event`` instances with a ``cancel``
#: method.  Every cancellation must still pass through the class.  The
#: cell pins tracing and faults off: ambient ``REPRO_TRACE`` adds the
#: metrics sampler, whose stop cancels one more event.
CANCEL_CELL_CANCELS = 146
CANCEL_CELL = dict(scheme="polaris", workers=2, warmup_seconds=0.2,
                   test_seconds=0.4, seed=9, trace=False, faults="")


def test_every_cancellation_goes_through_event_cancel(monkeypatch):
    """Patched on the class, as a profiler installs its span: a POLARIS
    cell whose cores change frequency mid-job cancels each rescheduled
    completion through ``Event.cancel``, and no site bypasses it."""
    from repro.harness.experiment import ExperimentConfig, run_experiment
    original = Event.__dict__["cancel"]
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(Event, "cancel", counting)
    run_experiment(ExperimentConfig(**CANCEL_CELL))
    assert len(calls) == CANCEL_CELL_CANCELS
    assert type(Simulator().schedule(0.0, lambda: None)) is list
