"""simsan: every invariant violated by hand, and the end-to-end gate.

Organic simulations never violate these invariants (that is the point),
so each check is exercised by tampering with internal state exactly the
way the bug it guards against would --- a mis-banked counter, a mutated
deadline, an out-of-table frequency --- and asserting the raised
:class:`SimulationInvariantError` names the invariant and carries the
event context.  The final tests run a full experiment cell under
``REPRO_SIMSAN=1`` and require zero violations and output identical to
the unsanitized run.
"""

import dataclasses
import heapq
import pickle

import pytest

from repro.analysis.sanitizer import (
    SIMSAN_ENV, SimulationInvariantError, invariant, simsan_enabled,
)
from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.variants import PolarisFifoScheduler
from repro.core.workload import Workload
from repro.cpu.core import Core
from repro.cpu.pstates import POLARIS_FREQUENCIES, XEON_E5_2640V3_PSTATES
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.sim.engine import Event, Simulator


class Job:
    """Stand-in transaction: the core reads only ``work`` (giga-cycles)."""

    def __init__(self, work):
        self.work = work


# ----------------------------------------------------------------------
# Flag resolution
# ----------------------------------------------------------------------
def test_simsan_enabled_env_spellings(monkeypatch):
    for value, expected in [("1", True), ("true", True), ("YES", True),
                            (" on ", True), ("0", False), ("", False),
                            ("off", False)]:
        monkeypatch.setenv(SIMSAN_ENV, value)
        assert simsan_enabled() is expected
    monkeypatch.delenv(SIMSAN_ENV)
    assert simsan_enabled() is False


def test_simsan_override_beats_env(monkeypatch):
    monkeypatch.setenv(SIMSAN_ENV, "1")
    assert simsan_enabled(False) is False
    monkeypatch.delenv(SIMSAN_ENV)
    assert simsan_enabled(True) is True
    assert Simulator(sanitize=True).sanitize
    assert not Simulator().sanitize


def test_invariant_error_carries_context():
    with pytest.raises(SimulationInvariantError) as exc:
        invariant(False, "edf-order", "out of order", now=1.5, seq=7)
    err = exc.value
    assert err.invariant == "edf-order"
    assert err.context == {"now": 1.5, "seq": 7}
    assert "simsan [edf-order]" in str(err)
    assert "now=1.5" in str(err) and "seq=7" in str(err)
    invariant(True, "edf-order", "fine")  # no raise


# ----------------------------------------------------------------------
# Engine invariants
# ----------------------------------------------------------------------
def test_engine_clock_monotonicity_violation():
    sim = Simulator(sanitize=True)
    sim.run(until=5.0)
    sim.schedule(1.0, lambda: None)
    # tamper: an entry earlier than now, pushed behind schedule()'s back
    heapq.heappush(sim._heap, [-1.0, 0, 99, lambda: None, False, sim])
    sim._live += 1
    with pytest.raises(SimulationInvariantError) as exc:
        sim.run()
    assert exc.value.invariant == "clock-monotonic"
    assert exc.value.context["event_time"] == -1.0


def test_engine_heap_integrity_violation():
    sim = Simulator(sanitize=True)
    for delay in (3.0, 1.0, 2.0):
        sim.schedule(delay, lambda: None)
    heap = sim._heap
    heap[0], heap[-1] = heap[-1], heap[0]  # tamper: swap two heap slots
    with pytest.raises(SimulationInvariantError) as exc:
        sim.sanitize_check()
    assert exc.value.invariant == "heap-integrity"
    assert {"index", "parent"} <= set(exc.value.context)


def test_engine_live_accounting_violation():
    sim = Simulator(sanitize=True)
    sim.schedule(1.0, lambda: None)
    sim._live += 1  # tamper: pending_count now lies
    with pytest.raises(SimulationInvariantError) as exc:
        sim.sanitize_check()
    assert exc.value.invariant == "event-accounting"
    assert exc.value.context["live_counter"] == 2
    assert exc.value.context["pending_in_heap"] == 1


def test_engine_cancelled_accounting_violation():
    sim = Simulator(sanitize=True)
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event[4] = True         # tamper: bypasses Event.cancel bookkeeping
    sim._live -= 1          # keep the live counter honest so the
    with pytest.raises(SimulationInvariantError) as exc:  # stale check fires
        sim.sanitize_check()
    assert exc.value.invariant == "event-accounting"
    assert exc.value.context["cancelled_in_heap"] == 1
    assert exc.value.context["stale_counter"] == 0


def test_engine_sanitized_run_is_clean():
    sim = Simulator(sanitize=True)
    fired = []
    for delay in (2.0, 1.0, 3.0):
        sim.schedule(delay, lambda d=delay: fired.append(d))
    cancelled = sim.schedule(2.5, lambda: fired.append(-1.0))
    Event.cancel(cancelled)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]
    sim.sanitize_check()  # drained engine still satisfies everything


def _chain_of_ticks(sim, ticks):
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < ticks:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count[0]


def test_engine_sanitizer_off_is_a_noop(monkeypatch):
    """Disabled, the hooks are dead branches: ``sanitize_check`` is
    never entered, so the only cost left is one pre-resolved boolean
    test per event.  Proven by counting calls, not by timing."""
    calls = []
    original = Simulator.sanitize_check

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Simulator, "sanitize_check", counting)
    assert _chain_of_ticks(Simulator(sanitize=False), 10000) == 10000
    assert calls == []
    _chain_of_ticks(Simulator(sanitize=True), 100)
    assert calls  # and they do fire when enabled


def test_engine_compaction_checked_under_sanitizer():
    sim = Simulator(sanitize=True)
    events = [sim.schedule(1.0 + i * 1e-3, lambda: None)
              for i in range(200)]
    for event in events[:150]:
        Event.cancel(event)  # crosses the garbage threshold -> _compact()
    assert sim.heap_size() < 200  # compaction ran (checked as it did)
    assert sim.pending_count() == 50
    sim.sanitize_check()


# ----------------------------------------------------------------------
# POLARIS invariants
# ----------------------------------------------------------------------
def _scheduler(sanitize=True, cls=PolarisScheduler):
    estimator = ExecutionTimeEstimator()
    for freq in POLARIS_FREQUENCIES:
        estimator.prime("w", freq, 0.001 * 2.8 / freq, count=10)
    return cls(POLARIS_FREQUENCIES, estimator, sanitize=sanitize)


def test_polaris_edf_pop_order_violation():
    sched = _scheduler()
    workload = Workload("w", 0.010)
    early = Request(workload, "t", 0.0, 1.0)
    late = Request(workload, "t", 0.0, 1.0, deadline=5.0)
    sched.enqueue(early)
    sched.enqueue(late)
    early.deadline = 9.0  # tamper after enqueue: sort key is now stale
    with pytest.raises(SimulationInvariantError) as exc:
        sched.next_request()
    assert exc.value.invariant == "edf-order"
    assert exc.value.context["popped_deadline"] == 9.0
    assert exc.value.context["queued_deadline"] == 5.0


def test_polaris_edf_pop_order_clean_and_fifo_exempt():
    sched = _scheduler()
    workload = Workload("w", 0.010)
    for arrival in (0.3, 0.1, 0.2):
        sched.enqueue(Request(workload, "t", arrival, 1.0))
    deadlines = [sched.next_request().deadline for _ in range(3)]
    assert deadlines == sorted(deadlines)
    # FIFO pops in arrival order; the EDF check must stay out of its way.
    fifo = _scheduler(cls=PolarisFifoScheduler)
    fifo.enqueue(Request(workload, "t", 0.0, 1.0, deadline=9.0))
    fifo.enqueue(Request(workload, "t", 0.1, 1.0, deadline=1.0))
    assert fifo.next_request().deadline == 9.0  # no violation raised


def test_polaris_selected_frequency_membership_violation():
    sched = _scheduler()
    with pytest.raises(SimulationInvariantError) as exc:
        sched._sanitize_selected(3.3, 0, now=1.0)
    assert exc.value.invariant == "pstate-membership"
    assert exc.value.context["selected"] == 3.3


def test_polaris_frequency_monotone_violation():
    sched = _scheduler()
    with pytest.raises(SimulationInvariantError) as exc:
        sched._sanitize_selected(POLARIS_FREQUENCIES[0], 2, now=1.0)
    assert exc.value.invariant == "freq-monotone"
    assert exc.value.context["floor_index"] == 2


def test_polaris_sanitized_selection_is_clean():
    sched = _scheduler()
    workload = Workload("w", 0.010)
    running = Request(workload, "t", 0.0, 1.0)
    for arrival in (0.0, 0.001, 0.002):
        sched.enqueue(Request(workload, "t", arrival, 1.0))
    selected = sched.select_frequency(0.004, running, 0.0005)
    assert selected in POLARIS_FREQUENCIES
    # And an idle-core selection (no running transaction).
    assert sched.select_frequency(0.004, None) in POLARIS_FREQUENCIES


def _rising_at_level_one(sched):
    """One queued request, feasible at the floor; then (through the
    estimator, so every count is right) "w" takes 5 ms at 1.6 GHz ---
    more than at 1.2 GHz and too long for the request's deadline."""
    sched.enqueue(Request(Workload("w", 0.004), "t", 0.0, 1.0))
    assert sched.select_frequency(0.0, None) == POLARIS_FREQUENCIES[0]
    sched.estimator.prime("w", POLARIS_FREQUENCIES[1], 0.005, count=1000)
    assert sched.estimator.rising == 1
    return sched.estimator


def test_polaris_hint_exact_violation_on_an_unlicensed_hint():
    sched = _scheduler()
    estimator = _rising_at_level_one(sched)
    sched._hint = 2
    assert sched.select_frequency(0.0, None) == POLARIS_FREQUENCIES[0]
    # A hand-corrupted counter licenses the start at level 1, where the
    # request looks infeasible and the walk climbs past the true answer.
    estimator.rising = 0
    sched._hint = 2
    with pytest.raises(SimulationInvariantError) as exc:
        sched.select_frequency(0.0, None)
    assert exc.value.invariant == "hint-exact"
    assert exc.value.context["level"] == 1
    assert exc.value.context["literal"] == (0, 1, False)
    assert exc.value.context["hinted"] == (2, 1, False)


def test_polaris_rows_falling_violation_on_a_corrupted_counter():
    sched = _scheduler()
    _rising_at_level_one(sched).rising = 0
    with pytest.raises(SimulationInvariantError) as exc:
        sched.select_frequency(0.0, None)  # hint 0: walked from the floor
    assert exc.value.invariant == "rows-falling"
    assert exc.value.context["counted"] == 0
    assert exc.value.context["rising"] == [("w", 0)]  # (workload, level)


def test_polaris_rows_falling_violation_on_a_row_edited_in_place():
    sched = _scheduler()
    sched.enqueue(Request(Workload("w", 1.0), "t", 0.0, 1.0))
    sched.select_frequency(0.0, None)
    # Behind the estimator's back: nothing recounted the table.
    row = sched.estimator.row("w")
    row[3] = row[2] * 2
    with pytest.raises(SimulationInvariantError) as exc:
        sched.select_frequency(0.0, None)
    assert exc.value.invariant == "rows-falling"
    assert exc.value.context["rising"] == [("w", 2)]


# ----------------------------------------------------------------------
# CPU core invariants
# ----------------------------------------------------------------------
def _core(sanitize=True):
    sim = Simulator(sanitize=sanitize)
    table = XEON_E5_2640V3_PSTATES.subset(POLARIS_FREQUENCIES)
    return sim, Core(sim, core_id=0, pstates=table)


def test_core_frequency_bounds_violation():
    sim, core = _core()
    core.freq = 9.9  # tamper: outside the table entirely
    with pytest.raises(SimulationInvariantError) as exc:
        core.sanitize_check()
    assert exc.value.invariant == "freq-bounds"
    assert exc.value.context["freq"] == 9.9
    assert exc.value.context["core_id"] == 0


def test_core_negative_work_violation():
    sim, core = _core()
    core.start_job(Job(work=1.0))
    core._executed = -0.5  # tamper: banked progress went negative
    with pytest.raises(SimulationInvariantError) as exc:
        core.sanitize_check()
    assert exc.value.invariant == "work-cycles"
    assert exc.value.context["executed"] == -0.5


def test_core_missing_completion_violation():
    sim, core = _core()
    core.start_job(Job(work=1.0))
    Event.cancel(core._completion)  # tamper: job can now never finish
    with pytest.raises(SimulationInvariantError) as exc:
        core.sanitize_check()
    assert exc.value.invariant == "work-cycles"


def test_core_power_model_consistency_violation():
    sim, core = _core()
    core.power_model.idle_power = lambda freq: 1e9  # idle above active
    with pytest.raises(SimulationInvariantError) as exc:
        core.sanitize_check()
    assert exc.value.invariant == "power-consistency"
    assert exc.value.context["idle_watts"] == 1e9


def test_core_sanitized_run_is_clean():
    sim, core = _core()
    done = []
    core.start_job(Job(work=2.8), on_complete=lambda job: done.append(job))
    sim.schedule(1e-4, lambda: core.set_frequency(1.2))
    sim.schedule(2e-4, lambda: core.set_frequency(2.8))
    sim.run()
    assert len(done) == 1
    core.sanitize_check()


# ----------------------------------------------------------------------
# End-to-end: full cell under REPRO_SIMSAN=1, byte-identical output
# ----------------------------------------------------------------------
FAST = dict(workers=2, warmup_seconds=0.3, test_seconds=1.0, seed=3)


def _comparable(result):
    """Everything except wall_seconds, the only host-dependent field."""
    return pickle.dumps(dataclasses.replace(result, wall_seconds=0.0))


@pytest.mark.parametrize("scheme", ["polaris", "ondemand"])
def test_full_cell_sanitized_and_byte_identical(monkeypatch, scheme):
    config = ExperimentConfig(scheme=scheme, slack=40.0, **FAST)
    monkeypatch.delenv(SIMSAN_ENV, raising=False)
    plain = run_experiment(config)
    monkeypatch.setenv(SIMSAN_ENV, "1")
    sanitized = run_experiment(config)  # zero violations = no raise
    assert _comparable(sanitized) == _comparable(plain)
