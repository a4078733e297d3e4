"""Graceful degradation: DVFS retry, watchdog migration, shedding, panic."""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request, RequestState
from repro.core.workload import Workload
from repro.db.server import DatabaseServer, ServerConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    DegradationPolicy, FaultPlan, MsrFaultSpec, StallSpec,
)
from repro.faults.resilience import ResilienceController
from repro.faults.scenarios import scenario_named
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.sim.engine import Simulator


def make_server(sim, workers=2, polaris=False):
    config = ServerConfig(workers=workers, request_handlers=1)
    factory = None
    if polaris:
        estimator = ExecutionTimeEstimator(window=4)
        for freq in config.scheduler_frequencies:
            estimator.prime("w", freq, 0.001 * 2.8 / freq, count=4)
        factory = lambda: PolarisScheduler(  # noqa: E731
            config.scheduler_frequencies, estimator)
    return DatabaseServer(sim, config, scheduler_factory=factory,
                          initial_freq=2.8)


def arm(sim, server, plan):
    resilience = ResilienceController(sim, server, plan.degradation)
    resilience.attach()
    injector = FaultInjector(sim, plan, random.Random(9))
    injector.attach(server)
    return resilience, injector


def request(arrival_s=0.0, work=0.0028, target_s=1.0) -> Request:
    workload = Workload("w", latency_target=target_s)
    return Request(workload, "w", arrival_s, work)


# ----------------------------------------------------------------------
# DVFS retry with deterministic backoff
# ----------------------------------------------------------------------
def test_retry_reapplies_target_once_fault_window_closes(sim):
    server = make_server(sim, workers=1)
    resilience, _ = arm(sim, server, FaultPlan(
        msr_faults=(MsrFaultSpec(0.0, 0.0015, mode="stuck"),),
        degradation=DegradationPolicy(msr_retry_limit=3,
                                      retry_backoff_s=0.001)))
    worker = server.workers[0]
    worker.pin_frequency(1.2)          # dropped: core stays at 2.8
    assert server.cores[0].freq == 2.8
    sim.run(until=0.01)
    # Retry 1 at 0.001 (still in the window, dropped); retry 2 at
    # 0.001 + 0.002 = 0.003 (window closed, takes effect).
    assert server.cores[0].freq == 1.2
    assert resilience.actions["msr_retry"] == 2
    assert resilience.actions["msr_retry_success"] == 1
    assert resilience.actions["msr_giveup"] == 0


def test_exhausted_retries_fall_back_to_lower_pstate(sim):
    server = make_server(sim, workers=1)
    plan = FaultPlan(
        msr_faults=(MsrFaultSpec(0.0, 10.0, mode="error"),),
        degradation=DegradationPolicy(msr_retry_limit=2,
                                      retry_backoff_s=0.001))
    resilience, injector = arm(sim, server, plan)
    worker = server.workers[0]
    server.cores[0].set_frequency(1.2)
    worker.pin_frequency(2.8)
    sim.run(until=0.1)
    # Every attempt raises; after the last, the one-shot fallback to
    # step_down(2.8) also raises, so the controller gives up.
    assert resilience.actions["msr_retry"] == 2
    assert resilience.actions["msr_giveup"] == 1
    assert server.cores[0].freq == 1.2  # rides the stale P-state


def test_new_decision_cancels_outstanding_retry(sim):
    server = make_server(sim, workers=1)
    resilience, _ = arm(sim, server, FaultPlan(
        msr_faults=(MsrFaultSpec(0.0, 0.0005, mode="stuck"),),
        degradation=DegradationPolicy(msr_retry_limit=5,
                                      retry_backoff_s=0.01)))
    worker = server.workers[0]
    worker.pin_frequency(1.2)  # dropped -> retry scheduled at 0.01
    # A newer decision lands after the fault window but before the
    # retry fires: it cancels the retry and applies directly.
    sim.schedule_at(0.001, lambda: worker.pin_frequency(2.4))
    sim.run(until=0.1)
    assert server.cores[0].freq == 2.4
    assert resilience.actions["msr_retry"] == 0  # old retry cancelled


# ----------------------------------------------------------------------
# Watchdog + migration
# ----------------------------------------------------------------------
def test_watchdog_quarantines_and_migrates_without_losing_requests(sim):
    server = make_server(sim, workers=2, polaris=True)
    resilience, _ = arm(sim, server, FaultPlan(
        stalls=(StallSpec(at_s=0.05, duration_s=None, workers=(0,)),),
        degradation=DegradationPolicy(watchdog_interval_s=0.01,
                                      watchdog_stall_threshold_s=0.02)))
    dead, healthy = server.workers

    def feed_dead_worker():
        for _ in range(3):
            server.submitted += 1
            dead.accept(request(arrival_s=sim.now))

    sim.schedule_at(0.06, feed_dead_worker)
    sim.run(until=0.2)
    server.drain()
    assert resilience.actions["quarantine"] == 1
    assert resilience.actions["migration"] == 1
    assert resilience.actions["migrated_requests"] == 3
    assert healthy.completed == 3          # nothing lost
    assert dead.worker_id in server.quarantined
    server.sanitize_accounting()           # books balance post-migration


def test_routing_probes_past_quarantined_workers(sim):
    server = make_server(sim, workers=2, polaris=True)
    _resilience, _ = arm(sim, server, FaultPlan(
        stalls=(StallSpec(at_s=0.0, duration_s=None, workers=(0,)),),
        degradation=DegradationPolicy(watchdog_interval_s=0.01,
                                      watchdog_stall_threshold_s=0.02)))
    sim.run(until=0.1)  # watchdog has quarantined worker 0
    for _ in range(4):
        server.submit(request(arrival_s=sim.now))
    server.drain()
    assert server.workers[0].completed == 0
    assert server.workers[1].completed == 4


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
def test_shedding_rejects_past_queue_depth(sim):
    server = make_server(sim, workers=1)
    resilience, _ = arm(sim, server, FaultPlan(
        stalls=(StallSpec(at_s=0.0, duration_s=None, workers=(0,)),),
        degradation=DegradationPolicy(shed_queue_depth=2)))
    rejected = []
    server.add_rejection_listener(rejected.append)
    sim.run(until=0.01)  # core now stalled: accepts queue, nothing runs
    worker = server.workers[0]
    requests = [request(arrival_s=sim.now) for _ in range(4)]
    for req in requests:
        server.submitted += 1
        worker.accept(req)
    assert worker.queue_length() == 2
    assert [r.state for r in requests[2:]] == [RequestState.REJECTED] * 2
    assert rejected == requests[2:]
    assert server.rejected == 2
    assert resilience.actions["shed"] == 2
    server.sanitize_accounting()


# ----------------------------------------------------------------------
# Panic mode
# ----------------------------------------------------------------------
def test_panic_enters_pins_fmax_and_exits_hysteretically(sim):
    server = make_server(sim, workers=2, polaris=True)
    resilience, _ = arm(sim, server, FaultPlan(
        stalls=(StallSpec(at_s=100.0, duration_s=None, workers=(0,)),),
        degradation=DegradationPolicy(panic_enter_miss_rate=0.5,
                                      panic_exit_miss_rate=0.05,
                                      panic_window=4)))
    server.cores[0].set_frequency(1.2)
    miss = SimpleNamespace(met_deadline=False)
    hit = SimpleNamespace(met_deadline=True)
    for _ in range(4):
        resilience._on_outcome(miss)
    assert resilience.panic
    assert resilience.actions["panic_enter"] == 1
    assert server.cores[0].freq == server.cores[0].pstates.max_freq
    assert all(w.dispatcher.panic for w in server.workers)
    # SetProcessorFreq short-circuits to fmax while panicking.
    freqs = server.workers[0].dispatcher.frequencies
    assert server.workers[0].dispatcher.select_frequency(
        sim.now, None) == freqs[-1]
    # One good completion is not enough to exit (hysteresis)...
    resilience._on_outcome(hit)
    assert resilience.panic
    # ...but a clean window is.
    for _ in range(3):
        resilience._on_outcome(hit)
    assert not resilience.panic
    assert resilience.actions["panic_exit"] == 1


def test_sheds_count_as_misses_for_panic(sim):
    server = make_server(sim, workers=1, polaris=True)
    resilience, _ = arm(sim, server, FaultPlan(
        stalls=(StallSpec(at_s=0.0, duration_s=None, workers=(0,)),),
        degradation=DegradationPolicy(shed_queue_depth=1,
                                      panic_enter_miss_rate=0.5,
                                      panic_exit_miss_rate=0.05,
                                      panic_window=4)))
    sim.run(until=0.01)
    worker = server.workers[0]
    for _ in range(6):  # 1 queued + 5 shed
        server.submitted += 1
        worker.accept(request(arrival_s=sim.now))
    assert resilience.actions["shed"] == 5
    assert resilience.panic  # rejections alone crossed the threshold


# ----------------------------------------------------------------------
# The resilience claim (checked-in comparison, ISSUE acceptance)
# ----------------------------------------------------------------------
def test_dying_core_degradation_beats_bare_polaris():
    """POLARIS with watchdog + shedding + panic keeps the failure rate
    strictly below the same scenario with every mechanism disarmed."""
    plan = scenario_named("dying-core")
    base = dict(scheme="polaris", benchmark="tpcc", load_fraction=0.6,
                slack=40.0, workers=2, warmup_seconds=0.3,
                test_seconds=1.0, seed=5)
    degraded = run_experiment(ExperimentConfig(faults=plan, **base))
    bare = run_experiment(ExperimentConfig(
        faults=replace(plan, degradation=DegradationPolicy()), **base))
    assert degraded.degradation_actions["quarantine"] == 1
    assert bare.degradation_actions == {}
    assert bare.lost > 0  # the dead core strands its queue
    assert degraded.failure_rate < bare.failure_rate
