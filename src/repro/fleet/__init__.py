"""repro.fleet: cluster-scale fleet simulation with elastic autoscaling.

The fleet tier lifts the single-server POLARIS model to a sharded,
replicated cluster: :class:`Node` wraps a
:class:`~repro.db.server.DatabaseServer` with a role and a
``warming -> active -> draining -> parked`` lifecycle,
:class:`ClusterRouter` shards requests by key and serves reads from
replicas (bouncing stale reads to primaries), and
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
virtual clock against the per-shard WAL-and-apply model
(:class:`ShardReplication`), :class:`FailoverManager` heartbeats the
shards and promotes the most-caught-up replica after a durable-WAL
replay, and an armed router self-heals with circuit breakers, bounded
retry-with-backoff, and optional hedged reads ---
see DESIGN.md, "Fleet failure model".
"""

from repro.fleet.chaos import FleetFaultInjector, ShardReplication
from repro.fleet.config import FleetConfig
from repro.fleet.controller import ElasticController
from repro.fleet.failover import AvailabilityTracker, FailoverManager
from repro.fleet.node import Fleet, Node, NodeState, PRIMARY, REPLICA
from repro.fleet.router import (
    ClusterRouter, NoActiveNodeError, RouterPolicy, ShardState,
    read_only_types,
)

__all__ = [
    "AvailabilityTracker",
    "ClusterRouter",
    "ElasticController",
    "FailoverManager",
    "Fleet",
    "FleetConfig",
    "FleetFaultInjector",
    "NoActiveNodeError",
    "Node",
    "NodeState",
    "PRIMARY",
    "REPLICA",
    "RouterPolicy",
    "ShardReplication",
    "ShardState",
    "read_only_types",
]

