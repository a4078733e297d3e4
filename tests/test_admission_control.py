"""Admission control: the PolarisShedScheduler and its server wiring."""

import math

import pytest

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.request import Request, RequestState
from repro.core.variants import PolarisShedScheduler
from repro.core.workload import Workload
from repro.cpu.pstates import POLARIS_FREQUENCIES
from repro.db.server import DatabaseServer, ServerConfig
from repro.metrics.latency import LatencyRecorder

FREQS = (1.2, 1.6, 2.0, 2.4, 2.8)


def primed_scheduler():
    estimator = ExecutionTimeEstimator(window=4)
    for freq in FREQS:
        estimator.prime("w", freq, 1e-3 * 2.8 / freq, count=4)
    return PolarisShedScheduler(FREQS, estimator)


def test_feasible_request_admitted():
    scheduler = primed_scheduler()
    request = Request(Workload("w", 0.010), "w", 0.0, 1.0)
    assert scheduler.admits(0.0, None, 0.0, request)


def test_hopeless_request_rejected():
    scheduler = primed_scheduler()
    # Deadline shorter than the request's own p95 at max frequency.
    request = Request(Workload("w", 0.5e-3), "w", 0.0, 1.0)
    assert not scheduler.admits(0.0, None, 0.0, request)


def test_rejection_considers_running_and_queue():
    scheduler = primed_scheduler()
    workload = Workload("w", 2.5e-3)
    running = Request(workload, "w", 0.0, 1.0)
    # Alone behind the running transaction (1 ms left): 2 ms < 2.5 ms.
    assert scheduler.admits(0.0, running, 0.0, Request(workload, "w",
                                                       0.0, 1.0))
    # Behind the running transaction plus two queued earlier-deadline
    # requests: 4 ms > 2.5 ms -> reject.
    scheduler.enqueue(Request(Workload("w", 1e-3), "w", 0.0, 1.0))
    scheduler.enqueue(Request(Workload("w", 1.5e-3), "w", 0.0, 1.0))
    assert not scheduler.admits(0.0, running, 0.0,
                                Request(workload, "w", 0.0, 1.0))


def test_later_deadline_queue_entries_ignored():
    scheduler = primed_scheduler()
    # A queued request with a *later* deadline does not delay this one
    # (EDF runs the earlier deadline first).
    scheduler.enqueue(Request(Workload("w", 1.0), "w", 0.0, 1.0))
    request = Request(Workload("w", 2.5e-3), "w", 0.0, 1.0)
    assert scheduler.admits(0.0, None, 0.0, request)


def test_base_polaris_admits_everything(sim):
    """Base POLARIS declares no ``admits`` hook, so a server running it
    accepts even a request that is infeasible on arrival."""
    from repro.core.polaris import PolarisScheduler
    estimator = ExecutionTimeEstimator(window=4)
    for freq in FREQS:
        estimator.prime("w", freq, 1e-3 * 2.8 / freq, count=4)
    server = DatabaseServer(
        sim, ServerConfig(workers=1),
        scheduler_factory=lambda: PolarisScheduler(
            POLARIS_FREQUENCIES, estimator))
    rejected = []
    server.add_rejection_listener(rejected.append)
    doomed = Request(Workload("w", 1e-9), "w", 0.0, 2.8e-3)
    server.submit(doomed)
    sim.run()
    assert doomed.state is RequestState.DONE
    assert not doomed.met_deadline
    assert rejected == [] and server.rejected == 0


def test_server_routes_rejections_to_listeners(sim):
    config = ServerConfig(workers=1)
    estimator = ExecutionTimeEstimator(window=4)
    for freq in FREQS:
        estimator.prime("w", freq, 1e-3 * 2.8 / freq, count=4)
    server = DatabaseServer(
        sim, config,
        scheduler_factory=lambda: PolarisShedScheduler(
            POLARIS_FREQUENCIES, estimator))
    recorder = LatencyRecorder()
    recorder.set_window(0.0, math.inf)
    server.add_completion_listener(recorder.on_completion)
    server.add_rejection_listener(recorder.on_rejection)

    accepted = Request(Workload("w", 0.050), "w", 0.0, 2.8e-3)
    hopeless = Request(Workload("w", 0.3e-3), "w", 0.0, 2.8e-3)
    server.submit(accepted)
    server.submit(hopeless)
    sim.run()

    assert accepted.state is RequestState.DONE
    assert hopeless.state is RequestState.REJECTED
    assert server.rejected == 1
    assert recorder.total_offered == 2
    assert recorder.total_missed == 1
    assert recorder.total_rejected == 1
    assert recorder.failure_rate == pytest.approx(0.5)


def test_rejected_requests_respect_recorder_window():
    recorder = LatencyRecorder()
    recorder.set_window(1.0, 2.0)
    outside = Request(Workload("w", 0.01), "w", 0.5, 1.0)
    inside = Request(Workload("w", 0.01), "w", 1.5, 1.0)
    recorder.on_rejection(outside)
    recorder.on_rejection(inside)
    assert recorder.total_rejected == 1
    assert recorder.total_offered == 1


def test_shed_scheme_registered():
    from repro.harness.schemes import scheme_named
    scheme = scheme_named("polaris-shed")
    assert scheme.uses_scheduler
    assert scheme.label == "POLARIS-SHED"
