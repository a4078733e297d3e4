"""Micro-drivers ([M]): a layer's public functions in a tight loop.

Each driver shapes its inputs like the workloads do (tpcc mix, the
paper's five frequencies, full S=1000 estimator windows) and reports
the median over ``MICRO_BATCHES`` batches of nanoseconds per operation.
Inputs are drawn outside the timed region; results are consumed inside
it.  Sizes are in ``spec.MICRO_OPS``.
"""

from __future__ import annotations

import heapq
import random
import statistics
from time import perf_counter_ns
from typing import Callable, Dict

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.workload import Workload
from repro.db.queues import EdfQueue
from repro.db.server import DatabaseServer, ServerConfig
from repro.fleet.node import Node, PRIMARY, REPLICA
from repro.fleet.router import ClusterRouter, ShardState, read_only_types
from repro.harness.experiment import ExperimentConfig
from repro.harness.parallel import code_version_salt, config_key
from repro.metrics.latency import LatencyRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads import tpcc

from bench.spec import MICRO_BATCHES, MICRO_OPS, REFERENCE_EVENTS

FREQUENCIES = (1.2, 1.6, 2.0, 2.4, 2.8)


def _ns_per_op(ops: int, setup: Callable[[], object],
               run: Callable[[object], None]) -> float:
    samples = []
    for _ in range(MICRO_BATCHES):
        state = setup()
        start = perf_counter_ns()
        run(state)
        samples.append((perf_counter_ns() - start) / ops)
    return statistics.median(samples)


class _Job:
    __slots__ = ("since", "key")

    def __init__(self, since: float, key: int):
        self.since = since
        self.key = key


def reference_slice(events: int = REFERENCE_EVENTS) -> float:
    """A fixed amount of work that is *not* the program under test: ns
    per event of a frozen pure-Python event loop (heap, slotted objects,
    a dict of floats, exponential draws --- the simulator's instruction
    mix, none of its code).  ``runner.HostSpeed`` brackets every timed
    step with it, because this container's cores are shared and run
    30-60 % slower for seconds at a time; it is also the calibration
    that makes runs on different days comparable (``bench.wall_norm``).
    """
    rng = random.Random(1)
    heap: list = []
    waited: Dict[int, float] = {}
    for key in range(64):
        heapq.heappush(heap, (rng.expovariate(1.0), key, _Job(0.0, key)))
    sequence = 64
    start = perf_counter_ns()
    for _ in range(events):
        now, _, job = heapq.heappop(heap)
        waited[job.key] = waited.get(job.key, 0.0) + (now - job.since)
        job.since = now
        heapq.heappush(heap, (now + rng.expovariate(1.0), sequence, job))
        sequence += 1
    return (perf_counter_ns() - start) / events


def _schedule_pop(seed: int, ops: int) -> float:
    rng = random.Random(seed)

    def setup():
        return Simulator(), [rng.expovariate(1000.0) for _ in range(ops)]

    def run(state):
        sim, delays = state
        schedule = sim.schedule
        noop = _noop
        for delay in delays:
            schedule(delay, noop)
        sim.run()
    return _ns_per_op(ops, setup, run)


def _noop() -> None:
    return None


def _rng_draws(seed: int, ops: int) -> Dict[str, float]:
    """``RandomStreams.get_batched`` draws, as arrivals (expovariate),
    the mix (random) and service times (lognormvariate) make them."""
    stream = RandomStreams(seed).get_batched("bench")

    def uniform(_state):
        draw = stream.random
        for _ in range(ops):
            draw()

    def exponential(_state):
        draw = stream.expovariate
        for _ in range(ops):
            draw(1000.0)

    def lognormal(_state):
        draw = stream.lognormvariate
        for _ in range(ops):
            draw(-7.0, 0.5)

    return {
        "sim.rng.draw_ns.random": _ns_per_op(ops, _noop, uniform),
        "sim.rng.draw_ns.expovariate": _ns_per_op(ops, _noop, exponential),
        "sim.rng.draw_ns.lognormvariate": _ns_per_op(ops, _noop, lognormal),
    }


def _select_frequency(seed: int, ops: int, queue_len: int) -> float:
    """Same construction as ``harness.figures.polaris_overhead``: long
    targets and small estimates keep every queue feasible at the lowest
    frequency, so the full walk runs."""
    rng = random.Random(seed)
    estimator = ExecutionTimeEstimator()
    workload = Workload("w", latency_target=100.0)
    for freq in FREQUENCIES:
        estimator.prime("w", freq, 1e-5 * 2.8 / freq, count=10)

    def setup():
        scheduler = PolarisScheduler(FREQUENCIES, estimator)
        for _ in range(queue_len):
            scheduler.enqueue(Request(workload, "t", rng.random(), 0.001))
        return scheduler, Request(workload, "t", 0.0, 0.001)

    def run(state):
        scheduler, running = state
        select = scheduler.select_frequency
        for _ in range(ops):
            select(0.5, running, 0.0001)
    return _ns_per_op(ops, setup, run)


def _estimator(seed: int, observe_ops: int, estimate_ops: int
               ) -> Dict[str, float]:
    """Full window (S=1000, p=95), as after the training phase."""
    rng = random.Random(seed)

    def full_window() -> ExecutionTimeEstimator:
        estimator = ExecutionTimeEstimator(window=1000, percentile=95.0)
        for _ in range(1000):
            estimator.observe("w", 2.8, rng.lognormvariate(-7.0, 0.5))
        return estimator

    def observe(state):
        estimator, values = state
        for value in values:
            estimator.observe("w", 2.8, value)

    def estimate(estimator):
        for _ in range(estimate_ops):
            estimator.estimate("w", 2.8)

    return {
        "core.estimator.observe_ns": _ns_per_op(
            observe_ops,
            lambda: (full_window(), [rng.lognormvariate(-7.0, 0.5)
                                     for _ in range(observe_ops)]),
            observe),
        "core.estimator.estimate_ns":
            _ns_per_op(estimate_ops, full_window, estimate),
    }


def _tpcc_requests(seed: int, count: int, txn_type: str = "") -> list:
    """``count`` tpcc requests, all arriving at t=0, of the mix or of
    one named type."""
    spec = tpcc.make_spec(include_bodies=False)
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        chosen = spec.type_named(txn_type) if txn_type \
            else spec.choose_type(rng)
        requests.append(Request(Workload(chosen.name, 1.0), chosen.name,
                                0.0, chosen.service.draw_work(rng)))
    return requests


def _txn_roundtrip(seed: int, ops: int) -> float:
    """submit -> complete on one 16-worker server, FIFO dispatch."""

    def setup():
        sim = Simulator()
        server = DatabaseServer(sim, ServerConfig(workers=16,
                                                  request_handlers=4))
        return sim, server, _tpcc_requests(seed, ops)

    def run(state):
        sim, server, requests = state
        submit = server.submit
        for request in requests:
            submit(request)
        sim.run()
        if sum(w.completed for w in server.workers) != ops:
            raise RuntimeError("txn_roundtrip: not every request completed")
    return _ns_per_op(ops, setup, run)


def _edf_push_pop(seed: int, ops: int) -> float:
    """One push + one pop at a steady depth of 16."""
    rng = random.Random(seed)
    workload = Workload("w", 1.0)

    def setup():
        queue = EdfQueue()
        requests = [Request(workload, "t", rng.random(), 0.001)
                    for _ in range(ops + 16)]
        for request in requests[:16]:
            queue.push(request)
        return queue, requests[16:]

    def run(state):
        queue, requests = state
        push, pop = queue.push, queue.pop
        for request in requests:
            push(request)
            pop()
    return _ns_per_op(ops, setup, run)


def _choose_draw(seed: int, ops: int) -> float:
    spec = tpcc.make_spec(include_bodies=False)
    streams = RandomStreams(seed)

    def run(state):
        mix, service = state
        choose = spec.choose_type
        for _ in range(ops):
            choose(mix).service.draw_work(service)
    return _ns_per_op(
        ops, lambda: (streams.get_batched("mix"),
                      streams.get_batched("service-times")), run)


def _on_completion(seed: int, ops: int) -> float:

    def setup():
        requests = _tpcc_requests(seed, ops)
        for request in requests:
            request.dispatch_time = 0.001
            request.dispatch_freq = 2.8
            request.finish_time = 0.002
        recorder = LatencyRecorder()
        recorder.set_window(0.0, 1.0)
        return recorder, requests

    def run(state):
        recorder, requests = state
        on_completion = recorder.on_completion
        for request in requests:
            on_completion(request)
        if recorder.total_completed != ops:
            raise RuntimeError("on_completion: a request fell outside the window")
    return _ns_per_op(ops, setup, run)


def _route(seed: int, ops: int, txn_type: str) -> float:
    """``ClusterRouter.route`` on a 2x2 fleet of FIFO nodes, one
    transaction type: a write goes to the primary, a read goes through
    replica selection and the staleness check."""

    def setup():
        sim = Simulator()
        shards = []
        for shard_id in range(2):
            nodes = [Node(sim, 2 * shard_id + index, shard_id, role,
                          DatabaseServer(sim, ServerConfig(
                              workers=2, request_handlers=1)),
                          parked_floor_watts=4.0,
                          replication_lag_s=0.0 if role == PRIMARY else 0.05)
                     for index, role in enumerate((PRIMARY, REPLICA))]
            shards.append(ShardState(shard_id, nodes[0], nodes[1:]))
        router = ClusterRouter(sim, shards, read_only_types("tpcc"))
        keys = random.Random(seed)
        return router, [(request, keys.randrange(4096))
                        for request in _tpcc_requests(seed, ops, txn_type)]

    def run(state):
        router, routed = state
        route = router.route
        for request, key in routed:
            route(request, key)
    return _ns_per_op(ops, setup, run)


def _config_key(seed: int, ops: int) -> float:
    salt = code_version_salt()
    config = ExperimentConfig(seed=seed)

    def run(_state):
        for _ in range(ops):
            config_key(config, salt)
    return _ns_per_op(ops, lambda: None, run) / 1e3


def run_all(seed: int, smoke: bool = False) -> Dict[str, float]:
    """Every [M] metric except ``bench.calib_spin_ns`` (the runner
    interleaves that probe between repetitions).  ``smoke`` runs a
    tenth of the operations."""
    def ops(key: str) -> int:
        return max(1, MICRO_OPS[key] // (10 if smoke else 1))

    metrics = {
        "sim.engine.schedule_pop_ns":
            _schedule_pop(seed, ops("sim.engine.schedule_pop_ns")),
        "db.server.txn_roundtrip_ns":
            _txn_roundtrip(seed, ops("db.server.txn_roundtrip_ns")),
        "db.queues.edf_push_pop_ns":
            _edf_push_pop(seed, ops("db.queues.edf_push_pop_ns")),
        "workloads.choose_draw_ns":
            _choose_draw(seed, ops("workloads.choose_draw_ns")),
        "metrics.latency.on_completion_ns":
            _on_completion(seed, ops("metrics.latency.on_completion_ns")),
        "fleet.router.route_ns.write":
            _route(seed, ops("fleet.router.route_ns"), "NewOrder"),
        "fleet.router.route_ns.read":
            _route(seed, ops("fleet.router.route_ns"), "OrderStatus"),
        "harness.parallel.config_key_us":
            _config_key(seed, ops("harness.parallel.config_key_us")),
    }
    metrics.update(_rng_draws(seed, ops("sim.rng.draw_ns")))
    metrics.update(_estimator(seed, ops("core.estimator.observe_ns"),
                              ops("core.estimator.estimate_ns")))
    for queue_len in (0, 4, 16, 64, 256):
        key = f"core.polaris.select_frequency_ns.q{queue_len}"
        metrics[key] = _select_frequency(seed, ops(key), queue_len)
    return metrics
