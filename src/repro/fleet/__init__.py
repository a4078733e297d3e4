"""repro.fleet: cluster-scale fleet simulation with elastic autoscaling.

The fleet tier lifts the single-server POLARIS model to a sharded,
replicated cluster: :class:`Node` wraps a
:class:`~repro.db.server.DatabaseServer` with a role and a
``warming -> active -> draining -> parked`` lifecycle,
:class:`ClusterRouter` shards requests by key and rotates reads over
every node that has applied the key's last commit (the shard's
:class:`ShardReplication` answers that per key), and
:class:`ElasticController` parks and boots whole replicas from the
windowed per-shard load --- the paper's race-to-idle argument applied
to nodes instead of cores.  A fleet cell runs through the one
experiment kernel, :func:`repro.harness.experiment.run_experiment`:
set the ``fleet`` field of
:class:`~repro.harness.experiment.ExperimentConfig`, and the kernel
drives a :class:`~repro.fleet.experiment.FleetPlant` (imported lazily,
only for fleet cells) instead of a single server.

PR 9 adds the failure model: :class:`FleetFaultInjector` schedules a
fault plan's node crashes / partitions / replica-lag windows onto the
virtual clock against the same per-shard WAL-and-apply model,
:class:`FailoverManager` heartbeats the
shards and promotes the most-caught-up replica after a durable-WAL
replay; while a shard awaits failover, every fleet cell's router
retries with bounded backoff and then sheds --- see DESIGN.md, "Fleet
failure model".

Import the submodules directly.  This init re-exports nothing, so
importing :mod:`repro.fleet.config` (every experiment does, for the
``ExperimentConfig.fleet`` field) loads no fleet machinery.
"""
