"""Discrete-event engine: ordering, cancellation, run control."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Event, SimulationError, Simulator


def test_events_run_in_time_order(sim):
    fired = []
    sim.schedule(3.0, lambda: fired.append(3))
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2, 3]
    assert sim.now == 3.0


def test_same_time_priority_then_fifo(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append("late"), priority=5)
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(1.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("early"), priority=-5)
    sim.run()
    assert fired == ["early", "a", "b", "late"]


def test_cancelled_event_skipped(sim):
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("no"))
    sim.schedule(2.0, lambda: fired.append("yes"))
    Event.cancel(event)
    sim.run()
    assert fired == ["yes"]


def test_run_until_advances_clock_exactly(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run(until=3.0)
    assert fired == [1]
    assert sim.now == 3.0
    sim.run()  # remaining event still fires later
    assert fired == [1, 5]
    assert sim.now == 5.0


def test_schedule_during_run(sim):
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_stop_halts_run(sim):
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    # After stop, the later event is still pending.
    assert sim.pending_count() == 1


def test_step_processes_single_event(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_peek_time_skips_cancelled(sim):
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    Event.cancel(first)
    assert sim.peek_time() == 2.0


def test_pending_count_excludes_cancelled(sim):
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    Event.cancel(drop)
    assert sim.pending_count() == 1
    Event.cancel(keep)
    assert sim.pending_count() == 0


def test_reentrant_run_rejected(sim):
    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_property_execution_order_matches_sorted_delays(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run()
    assert fired == sorted(delays)
    assert sim.now == max(delays)


# ----------------------------------------------------------------------
# Live-event accounting and cancelled-garbage compaction
# ----------------------------------------------------------------------
def test_cancel_after_fire_is_noop(sim):
    """Regression: cancelling an already-executed event must neither
    raise nor corrupt the live-event counter."""
    event = sim.schedule(1.0, lambda: None)
    later = sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert event[3] is None and not event[4]  # fired
    Event.cancel(event)  # harmless no-op
    Event.cancel(event)  # idempotent
    assert not event[4]
    assert sim.pending_count() == 1
    Event.cancel(later)
    assert sim.pending_count() == 0


def test_event_repr_shows_time_priority_seq_state(sim):
    event = sim.schedule(1.5, lambda: None, priority=2)
    assert repr(event).startswith(f"[1.5, 2, {event[2]}, <function ")
    assert ", False, <repro.sim.engine.Simulator " in repr(event)
    Event.cancel(event)
    assert ", True, <repro.sim.engine.Simulator " in repr(event)
    fired = sim.schedule(0.5, lambda: None)
    sim.run(until=1.0)
    assert repr(fired).startswith(f"[0.5, 0, {fired[2]}, None, False, ")


def test_cancel_twice_counts_once(sim):
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    Event.cancel(event)
    Event.cancel(event)
    assert sim.pending_count() == 1


def test_cancel_during_run_reflected_in_pending_count(sim):
    victim = sim.schedule(2.0, lambda: None)

    def killer():
        Event.cancel(victim)
        assert sim.pending_count() == 0

    sim.schedule(1.0, killer)
    sim.run()
    assert sim.pending_count() == 0


def test_pending_count_tracks_schedule_pop_cancel(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending_count() == 5
    sim.step()
    assert sim.pending_count() == 4
    Event.cancel(events[2])
    assert sim.pending_count() == 3
    sim.run()
    assert sim.pending_count() == 0


def test_events_processed_counts_only_fired(sim):
    fired = sim.schedule(1.0, lambda: None)
    dropped = sim.schedule(2.0, lambda: None)
    Event.cancel(dropped)
    sim.run()
    assert sim.events_processed == 1
    assert fired[3] is None and not fired[4]
    assert dropped[4]


def test_compaction_bounds_heap_garbage(sim):
    """Reschedule churn (the POLARIS frequency-change pattern) must not
    grow the heap without bound."""
    from repro.sim.engine import COMPACTION_MIN_GARBAGE
    live = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
    for i in range(10000):
        Event.cancel(sim.schedule(1.0 + i * 1e-6, lambda: None))
    assert sim.pending_count() == 10
    # Garbage is kept below the live count once past the floor.
    assert sim.heap_size() <= 10 + COMPACTION_MIN_GARBAGE + 1
    sim.run(until=500.0)
    assert sim.now == 500.0
    for event in live:
        Event.cancel(event)
    assert sim.pending_count() == 0


def test_compaction_preserves_order_and_results(sim):
    """Interleave schedules and cancels past the compaction threshold;
    surviving events still fire in exact (time, priority, seq) order."""
    fired = []
    keep = []
    for i in range(500):
        event = sim.schedule(1.0 + (i * 7919 % 500),
                             lambda i=i: fired.append(i))
        if i % 3 == 0:
            keep.append((1.0 + (i * 7919 % 500), i))
        else:
            Event.cancel(event)
    sim.run()
    assert fired == [i for _t, i in sorted(keep)]
    assert sim.pending_count() == 0
