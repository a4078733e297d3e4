"""The server's rejection path and the recorder's failure accounting.

A rejected request is offered-but-failed (the paper's Section 1 option
to "reject low value requests when load is high"): it must count exactly
once in the failure books, never also as a completion, and rejection
listeners must see every rejection in order.
"""

import math

import pytest

from repro.core.request import Request, RequestState
from repro.core.workload import Workload
from repro.db.server import DatabaseServer, ServerConfig
from repro.metrics.latency import LatencyRecorder


def make_server(sim, workers=1):
    return DatabaseServer(sim, ServerConfig(workers=workers,
                                            request_handlers=1),
                          scheduler_factory=None, initial_freq=2.8)


def request(name="gold", arrival_s=0.0, target_s=1.0) -> Request:
    return Request(Workload(name, latency_target=target_s), name,
                   arrival_s, work=0.0028)


# ----------------------------------------------------------------------
# Listener fan-out
# ----------------------------------------------------------------------
def test_notify_rejection_counts_and_fans_out_in_order(sim):
    server = make_server(sim)
    seen_a, seen_b = [], []
    server.add_rejection_listener(seen_a.append)
    server.add_rejection_listener(seen_b.append)
    first, second = request(), request()
    server.notify_rejection(first)
    server.notify_rejection(second)
    assert server.rejected == 2
    assert seen_a == [first, second]
    assert seen_b == [first, second]


def test_rejection_listeners_do_not_hear_completions(sim):
    server = make_server(sim)
    rejections, completions = [], []
    server.add_rejection_listener(rejections.append)
    server.add_completion_listener(completions.append)
    server.submit(request())
    server.drain()
    assert completions and not rejections
    assert server.rejected == 0


# ----------------------------------------------------------------------
# Recorder accounting
# ----------------------------------------------------------------------
def test_rejection_counts_once_in_per_workload_failure():
    recorder = LatencyRecorder()
    recorder.set_window(0.0, math.inf)
    recorder.on_rejection(request("gold"))
    finished = request("gold")
    finished.dispatch_time, finished.finish_time = 0.1, 0.5
    recorder.on_completion(finished)
    stats = recorder.per_workload["gold"]
    assert (stats.offered, stats.completed, stats.missed) == (2, 1, 1)
    assert stats.failure_rate == pytest.approx(0.5)
    assert recorder.total_rejected == 1
    assert recorder.total_offered \
        == recorder.total_completed + recorder.total_rejected


def test_rejection_outside_window_is_censored():
    recorder = LatencyRecorder()
    recorder.set_window(1.0, 2.0)
    recorder.on_rejection(request(arrival_s=0.5))   # before the window
    recorder.on_rejection(request(arrival_s=1.5))   # inside
    recorder.on_rejection(request(arrival_s=2.0))   # at end (half-open)
    assert recorder.total_rejected == 1
    assert recorder.per_workload["gold"].offered == 1


def test_lost_requests_count_like_rejections():
    recorder = LatencyRecorder()
    recorder.set_window(0.0, math.inf)
    recorder.on_lost(request("gold"))
    stats = recorder.per_workload["gold"]
    assert (stats.offered, stats.missed) == (1, 1)
    assert recorder.total_lost == 1
    assert recorder.total_rejected == 0  # distinct books


def test_rejected_request_never_double_counted_end_to_end(sim):
    """Drive the server's real rejection path (resilience shedding) and
    check a shed request hits the recorder exactly once."""
    from repro.faults.plan import DegradationPolicy, FaultPlan, StallSpec
    from repro.faults.resilience import ResilienceController
    from repro.faults.injector import FaultInjector
    import random

    server = make_server(sim)
    plan = FaultPlan(
        stalls=(StallSpec(at_s=0.0, duration_s=0.05, workers=(0,)),),
        degradation=DegradationPolicy(shed_queue_depth=1))
    ResilienceController(sim, server, plan.degradation).attach()
    FaultInjector(sim, plan, random.Random(1)).attach(server)
    recorder = LatencyRecorder()
    recorder.set_window(0.0, math.inf)
    server.add_completion_listener(recorder.on_completion)
    server.add_rejection_listener(recorder.on_rejection)

    def offer():
        for _ in range(3):  # stalled core: 1 queues, 2 shed
            server.submit(request(arrival_s=sim.now))

    sim.schedule_at(0.01, offer)
    sim.run(until=0.2)
    server.drain()
    assert server.rejected == 2
    assert recorder.total_rejected == 2
    assert recorder.total_completed == 1
    stats = recorder.per_workload["gold"]
    # 3 offered = 1 completed + 2 missed-by-rejection; nothing twice.
    assert (stats.offered, stats.completed, stats.missed) == (3, 1, 2)
    server.sanitize_accounting()
