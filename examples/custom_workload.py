#!/usr/bin/env python3
"""Bring your own workload: POLARIS on a custom benchmark.

POLARIS only needs (a) per-request workload labels with latency
targets and (b) measured execution times.  This example defines a
custom two-type key-value-store benchmark --- cheap GETs with a tight
SLA and expensive SCANs with a loose one --- and compares POLARIS
against a fixed peak frequency.

    python examples/custom_workload.py
"""

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.workload import Workload, WorkloadManager
from repro.cpu.pstates import POLARIS_FREQUENCIES
from repro.db.server import DatabaseServer, ServerConfig
from repro.metrics.latency import LatencyRecorder
from repro.metrics.power import PowerMeter
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.arrivals import OpenLoopGenerator
from repro.workloads.base import BenchmarkSpec, ServiceTimeModel, TransactionType

#: GETs: 80 us mean, modest tail, 10 ms latency target (SCANs run
#: non-preemptively ahead of them, so the SLA must absorb one scan).
#: SCANs: 4 ms mean, heavier tail, 200 ms latency target.
KV_SPEC = BenchmarkSpec("kv", [
    TransactionType("Get", 0.9, ServiceTimeModel(80e-6, 200e-6)),
    TransactionType("Scan", 0.1, ServiceTimeModel(4e-3, 9e-3)),
])
TARGETS = {"Get": 10e-3, "Scan": 200e-3}


def run(scheme: str, rate: float, seed: int = 3):
    sim = Simulator()
    streams = RandomStreams(seed)
    server_config = ServerConfig(workers=4)
    estimator = ExecutionTimeEstimator()
    if scheme == "polaris":
        server = DatabaseServer(
            sim, server_config,
            scheduler_factory=lambda: PolarisScheduler(
                POLARIS_FREQUENCIES, estimator))
        # Prime the estimators as the paper's training phase would.
        for txn_type in KV_SPEC.types:
            for freq in POLARIS_FREQUENCIES:
                estimator.prime(
                    txn_type.name, freq,
                    txn_type.service.p95_seconds * 2.8 / freq, count=50)
    else:
        server = DatabaseServer(sim, server_config, scheduler_factory=None,
                                initial_freq=2.8)

    manager = WorkloadManager(
        Workload(name, target) for name, target in TARGETS.items())
    recorder = LatencyRecorder()
    recorder.set_window(1.0, 5.0)
    server.add_completion_listener(recorder.on_completion)
    meter = PowerMeter(sim, server.wall_energy, streams.get("noise"))
    service_rng = streams.get("service")

    def on_arrival(now: float) -> None:
        txn_type = KV_SPEC.choose_type(streams.get("mix"))
        server.submit(Request(manager.get(txn_type.name), txn_type.name,
                              now, txn_type.service.draw_work(service_rng)))

    generator = OpenLoopGenerator.constant(sim, rate, on_arrival,
                                           streams.get("arrivals"))
    generator.start()
    sim.schedule_at(1.0, meter.start)
    sim.run(until=5.0)
    generator.stop()
    server.drain()
    return meter.average_power(1.0, 5.0), recorder


def main() -> None:
    peak = KV_SPEC.peak_throughput(workers=4)
    rate = 0.5 * peak
    print(f"Custom KV benchmark: 90% GET ({TARGETS['Get'] * 1e3:g} ms "
          f"SLA), 10% SCAN ({TARGETS['Scan'] * 1e3:g} ms SLA); "
          f"{rate:.0f} req/s on 4 workers\n")
    print(f"{'scheme':10s} {'power':>8s} {'GET miss':>9s} {'SCAN miss':>10s}")
    for scheme in ("static-2.8", "polaris"):
        power, recorder = run(scheme, rate)
        print(f"{scheme:10s} {power:7.1f}W "
              f"{recorder.workload_failure_rate('Get'):9.3f} "
              f"{recorder.workload_failure_rate('Scan'):10.3f}")
    print()
    print("POLARIS exploits the SCANs' loose SLA to run them slowly,")
    print("saving power, while keeping GETs within their tight SLA.")


if __name__ == "__main__":
    main()
