#!/usr/bin/env python3
"""The substrate at work: functional TPC-C on the storage engine.

The reproduction's database server is not a mock: transactions really
execute against an in-memory storage engine with indexes, row locks,
and a write-ahead log.  This example runs a POLARIS-scheduled workload
in *functional* mode, then verifies TPC-C's consistency conditions and
demonstrates crash recovery from the durable log.

    python examples/functional_database.py
"""

import random

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.workload import WorkloadManager
from repro.db.server import DatabaseServer, ServerConfig
from repro.db.storage.database import Database
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads import tpcc
from repro.workloads.arrivals import OpenLoopGenerator


def main() -> None:
    # --- build a real TPC-C database -------------------------------------
    config = tpcc.TpccConfig(warehouses=2)
    db = tpcc.build_database(config, seed=99)
    print("Loaded TPC-C database:",
          {name: count for name, count in sorted(
              db.checkpoint_rowcounts().items())})

    # --- run a POLARIS-scheduled server in functional mode ---------------
    sim = Simulator()
    streams = RandomStreams(99)
    spec = tpcc.make_spec()
    estimator = ExecutionTimeEstimator()
    server_config = ServerConfig(workers=2)
    server = DatabaseServer(
        sim, server_config,
        scheduler_factory=lambda: PolarisScheduler(
            server_config.scheduler_frequencies, estimator))
    server.attach_functional(db, tpcc.TRANSACTION_BODIES, config,
                             random.Random(7))
    manager = WorkloadManager.per_type_with_slack(spec, slack=50.0)
    service_rng = streams.get("service")

    def on_arrival(now: float) -> None:
        txn_type = spec.choose_type(streams.get("mix"))
        server.submit(Request(manager.get(txn_type.name), txn_type.name,
                              now, txn_type.service.draw_work(service_rng)))

    generator = OpenLoopGenerator.constant(sim, 400.0, on_arrival,
                                           streams.get("arrivals"))
    generator.start()
    sim.run(until=3.0)
    generator.stop()
    server.drain()
    executed = sum(w.completed for w in server.workers)
    print(f"Executed {executed} real transactions "
          f"({db.log.stats.commits} commits, {db.log.stats.aborts} "
          f"rollbacks, {db.log.stats.group_forces} group-commit forces)")

    # --- verify TPC-C consistency conditions -----------------------------
    problems = tpcc.check_consistency(db, config)
    print("Consistency check:",
          "OK" if not problems else f"{len(problems)} violations!")
    for problem in problems[:5]:
        print("  ", problem)

    # --- crash recovery from the durable log -----------------------------
    survivors = db.log.crash()  # drop the buffered tail
    recovered = Database()
    tpcc.create_schema(recovered)
    recovered.recover_from(survivors)
    print(f"Recovered {sum(recovered.checkpoint_rowcounts().values())} rows "
          f"from {len(survivors)} durable log records "
          "(uncommitted tail discarded).")


if __name__ == "__main__":
    main()
