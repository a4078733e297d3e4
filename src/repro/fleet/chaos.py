"""Fleet-scope fault injection: crashes, partitions, slow followers.

The cluster-scale sibling of :mod:`repro.faults.injector`.  A fleet
cell whose resolved :class:`~repro.faults.plan.FaultPlan` carries fleet
faults (``node_crashes`` / ``partitions`` / ``replica_lags``) arms a
:class:`FleetFaultInjector`, which turns the plan's windows into
virtual-clock events exactly like the server-tier injector does ---
pure data in, scheduled events out, so chaos runs stay byte-
deterministic functions of ``(config, seed, plan)``.

Each fault acts through the component it breaks.  A crash fail-stops
the node and drops its shard WAL's buffered tail; a partition freezes
the shard's replicas and a slow-follower window adds apply lag, both in
the shard's :class:`~repro.fleet.router.ShardReplication` --- the one
replication model the router's freshness check and the failover
election read.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.fleet.node import REPLICA, Fleet, Node, NodeState
from repro.fleet.router import ShardState
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

#: Deterministic ordering of the injected-event counters.
_KINDS = ("node_crash", "partition_begin", "partition_end",
          "replica_lag_begin", "replica_lag_end")


class FleetFaultInjector:
    """Schedules a plan's fleet faults onto the virtual clock."""

    def __init__(self, sim: Simulator, plan: FaultPlan, fleet: Fleet,
                 shards: List[ShardState],
                 on_crash: Callable[[Node, List], None]):
        self.sim = sim
        self.plan = plan
        self.fleet = fleet
        self.shards = shards
        #: ``on_crash(node, lost_requests)``: the experiment accounts
        #: the corpses (offered-and-lost) and marks the shard down.
        self.on_crash = on_crash
        self.injected: Dict[str, int] = {kind: 0 for kind in _KINDS}
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("faults", "fleet-injector")

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def _fired(self, kind: str, name: str, **payload) -> None:
        self.injected[kind] += 1
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, name, self.sim.now,
                                **payload)

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Schedule every window edge of the plan's fleet faults."""
        for crash in self.plan.node_crashes:
            if crash.nodes:
                nodes_by_id = {n.node_id: n for n in self.fleet.nodes}
                for node_id in crash.nodes:
                    if node_id not in nodes_by_id:
                        raise ValueError(
                            f"NodeCrashSpec names unknown node {node_id}")
                    self.sim.schedule_at(
                        crash.at_s,
                        partial(self._crash_node, nodes_by_id[node_id]))
            else:
                # Empty target tuple = the primary of every shard, the
                # crash-per-shard plan; resolved at fire time so an
                # earlier failover's promotion is honored.
                for shard in self.shards:
                    self.sim.schedule_at(
                        crash.at_s, partial(self._crash_primary, shard))
        for spec in self.plan.partitions:
            for shard in self._partition_targets(spec):
                self.sim.schedule_at(
                    spec.start_s,
                    partial(self._partition_edge, shard, True))
                self.sim.schedule_at(
                    spec.end_s,
                    partial(self._partition_edge, shard, False))
        for spec in self.plan.replica_lags:
            for node in self._lag_targets(spec):
                self.sim.schedule_at(
                    spec.start_s,
                    partial(self._lag_edge, node, spec.extra_lag_s, True))
                self.sim.schedule_at(
                    spec.end_s,
                    partial(self._lag_edge, node, spec.extra_lag_s, False))

    def _partition_targets(self, spec) -> List[ShardState]:
        if not spec.shards:
            return list(self.shards)
        for shard_id in spec.shards:
            if not 0 <= shard_id < len(self.shards):
                raise ValueError(
                    f"PartitionSpec names unknown shard {shard_id}")
        return [self.shards[shard_id] for shard_id in spec.shards]

    def _lag_targets(self, spec) -> List[Node]:
        if not spec.nodes:
            # Empty target tuple = every replica (never a primary).
            return [n for n in self.fleet.nodes if n.role == REPLICA]
        nodes_by_id = {n.node_id: n for n in self.fleet.nodes}
        targets = []
        for node_id in spec.nodes:
            if node_id not in nodes_by_id:
                raise ValueError(
                    f"ReplicaLagSpec names unknown node {node_id}")
            targets.append(nodes_by_id[node_id])
        return targets

    # ------------------------------------------------------------------
    # Fault mechanics
    # ------------------------------------------------------------------
    def _crash_primary(self, shard: ShardState) -> None:
        self._crash_node(shard.primary)

    def _crash_node(self, node: Node) -> None:
        if node.state is NodeState.CRASHED:
            return  # overlapping specs: one funeral per node
        lost = node.crash()
        lost_commits = 0
        shard = self.shards[node.shard_id]
        if shard.primary is node:
            lost_commits = shard.replication.on_primary_crash()
        self._fired("node_crash", "fault:node-crash", node=node.node_id,
                    shard=node.shard_id, lost_requests=len(lost),
                    lost_commits=lost_commits)
        self.on_crash(node, lost)

    def _partition_edge(self, shard: ShardState, opening: bool) -> None:
        replication = shard.replication
        for node in shard.replicas:
            if opening:
                replication.freeze_replica(node)
            else:
                replication.heal_replica(node)
        self._fired("partition_begin" if opening else "partition_end",
                    f"fault:partition:{'begin' if opening else 'end'}",
                    shard=shard.shard_id)

    def _lag_edge(self, node: Node, extra_lag_s: float,
                  opening: bool) -> None:
        self.shards[node.shard_id].replication.add_lag(
            node, extra_lag_s if opening else -extra_lag_s)
        self._fired("replica_lag_begin" if opening else "replica_lag_end",
                    f"fault:replica-lag:{'begin' if opening else 'end'}",
                    node=node.node_id, extra_lag_s=extra_lag_s)


__all__ = ["FleetFaultInjector"]
