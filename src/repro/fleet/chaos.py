"""Fleet-scope fault injection: crashes, partitions, slow followers.

The cluster-scale sibling of :mod:`repro.faults.injector`.  A fleet
cell whose resolved :class:`~repro.faults.plan.FaultPlan` carries fleet
faults (``node_crashes`` / ``partitions`` / ``replica_lags``) arms a
:class:`FleetFaultInjector`, which turns the plan's windows into
virtual-clock events exactly like the server-tier injector does ---
pure data in, scheduled events out, so chaos runs stay byte-
deterministic functions of ``(config, seed, plan)``.

This module also owns :class:`ShardReplication`, the per-shard WAL and
replica-apply model the failure machinery runs on:

* the shard's primary logs one row image + COMMIT (two LSNs) per
  completed write under group commit --- so a crash loses exactly the
  buffered-but-unforced tail, the paper's Shore-MT durability window.
  Nothing reads a record's contents, so the log is kept as LSN
  counters: the next LSN, the buffered COMMIT LSNs and the durable
  ones;
* replicas apply a forced log prefix after their replication lag:
  a record forced at ``t`` is applied by a replica of lag ``L`` at
  ``t + L`` (and never, once the primary is dead --- shipping stops at
  the crash);
* a partition freezes a replica's applied LSN (its effective lag is
  unbounded until the window heals), a :class:`ReplicaLagSpec` adds to
  it, and :func:`FleetFaultInjector.effective_lag_s` feeds both through
  the router's staleness check.

:class:`~repro.fleet.failover.FailoverManager` reads the same state to
pick the most-caught-up replica and to price the WAL replay.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.fleet.node import Fleet, Node, NodeState
from repro.fleet.router import ShardState
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

#: Deterministic ordering of the injected-event counters.
_KINDS = ("node_crash", "partition_begin", "partition_end",
          "replica_lag_begin", "replica_lag_end")

#: Commits per group-commit force on each shard's primary WAL --- the
#: durability window a crash can lose (Shore-MT's default is 100; the
#: fleet uses fewer so the chaos cells exercise real loss without
#: needing thousands of writes).
GROUP_COMMIT_SIZE = 8


class ShardReplication:
    """One shard's WAL plus the replicas' apply positions."""

    def __init__(self, sim: Simulator, shard_id: int,
                 group_commit_size: int = GROUP_COMMIT_SIZE):
        self.sim = sim
        self.shard_id = shard_id
        #: The unit tests sweep it; fleet cells run the constant.
        self.group_commit_size = group_commit_size
        self.next_lsn = 1
        #: COMMIT LSNs in the unforced tail; a full group forces it.
        self.buffered_commits: List[int] = []
        #: COMMIT LSNs forced to the durable log, ascending.  A force
        #: always lands right after a COMMIT, so the durable log ends on
        #: one and holds exactly two records per entry here.
        self.durable_commits: List[int] = []
        #: (force time, last durable LSN) per log force, in time order;
        #: a replica of lag L has applied the longest prefix whose
        #: force happened at least L ago (and before the primary died).
        self.force_times: List[Tuple[float, int]] = []
        #: Commits lost so far: buffered tails dropped by crashes plus
        #: durable-but-never-shipped records trimmed at promotion.
        self.lost_commits = 0
        #: Virtual time the shard's primary crashed (None while the
        #: write path is alive); shipping stops here.
        self.crashed_at_s: Optional[float] = None
        self._frozen_lsn: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Primary-side logging
    # ------------------------------------------------------------------
    def on_write_committed(self) -> None:
        """A write transaction completed on the primary: its row image
        and COMMIT take the next two LSNs under group commit."""
        commit_lsn = self.next_lsn + 1
        self.next_lsn += 2
        buffered = self.buffered_commits
        buffered.append(commit_lsn)
        if len(buffered) >= self.group_commit_size:
            self.durable_commits.extend(buffered)
            buffered.clear()
            self.force_times.append((self.sim.now, commit_lsn))

    def on_primary_crash(self) -> int:
        """The primary fail-stopped: the buffered tail is gone.  Counts
        and returns the commits it took with it."""
        buffered = len(self.buffered_commits)
        self.crashed_at_s = self.sim.now
        self.buffered_commits.clear()
        self.lost_commits += buffered
        return buffered

    # ------------------------------------------------------------------
    # Replica apply positions
    # ------------------------------------------------------------------
    def applied_lsn(self, node_id: int, lag_s: float,
                    now_s: float) -> int:
        """The LSN through which the replica has applied at ``now_s``."""
        frozen = self._frozen_lsn.get(node_id)
        if frozen is not None:
            return frozen
        applied = 0
        for force_t, lsn in self.force_times:
            if force_t + lag_s > now_s:
                break  # not yet shipped+applied; later forces are later
            if self.crashed_at_s is not None \
                    and force_t > self.crashed_at_s:
                break  # forced after the crash: never shipped
            applied = lsn
        return applied

    def freeze_replica(self, node: Node) -> None:
        """Partition begin: the replica's apply position pins where it
        is now; its staleness grows without bound until healed."""
        if node.node_id not in self._frozen_lsn:
            self._frozen_lsn[node.node_id] = self.applied_lsn(
                node.node_id, node.replication_lag_s, self.sim.now)

    def heal_replica(self, node: Node) -> None:
        self._frozen_lsn.pop(node.node_id, None)

    def is_frozen(self, node_id: int) -> bool:
        return node_id in self._frozen_lsn

    # ------------------------------------------------------------------
    # Promotion (failover)
    # ------------------------------------------------------------------
    def promote_to(self, node: Node, lag_s: float, now_s: float) -> int:
        """Re-point the shard's log at ``node``'s applied prefix and
        return how many records its redo pass replays.

        Durable commits beyond the prefix were never shipped --- they
        join :attr:`lost_commits` and the log is trimmed, so the new
        primary's history ends exactly where its replay does.
        """
        applied = self.applied_lsn(node.node_id, lag_s, now_s)
        durable = self.durable_commits
        kept = bisect_right(durable, applied)
        self.lost_commits += len(durable) - kept
        del durable[kept:]
        self.buffered_commits.clear()
        self.force_times = [(t, lsn) for t, lsn in self.force_times
                            if lsn <= applied]
        self.crashed_at_s = None  # the write path is alive again
        return 2 * kept  # an UPDATE and a COMMIT per kept write


class FleetFaultInjector:
    """Schedules a plan's fleet faults onto the virtual clock."""

    def __init__(self, sim: Simulator, plan: FaultPlan, fleet: Fleet,
                 shards: List[ShardState],
                 replication: Dict[int, ShardReplication],
                 on_crash: Callable[[Node, List], None]):
        self.sim = sim
        self.plan = plan
        self.fleet = fleet
        self.shards = shards
        self.replication = replication
        #: ``on_crash(node, lost_requests)``: the experiment accounts
        #: the corpses (offered-and-lost) and marks the shard down.
        self.on_crash = on_crash
        self.injected: Dict[str, int] = {kind: 0 for kind in _KINDS}
        self._extra_lag_s: Dict[int, float] = {}
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
            return list(self.fleet.nodes)
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
            lost_commits = self.replication[node.shard_id] \
                .on_primary_crash()
        self._fired("node_crash", "fault:node-crash", node=node.node_id,
                    shard=node.shard_id, lost_requests=len(lost),
                    lost_commits=lost_commits)
        self.on_crash(node, lost)

    def _partition_edge(self, shard: ShardState, opening: bool) -> None:
        replication = self.replication[shard.shard_id]
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
        current = self._extra_lag_s.get(node.node_id, 0.0)
        if opening:
            self._extra_lag_s[node.node_id] = current + extra_lag_s
        else:
            remaining = current - extra_lag_s
            if remaining > 0.0:
                self._extra_lag_s[node.node_id] = remaining
            else:
                self._extra_lag_s.pop(node.node_id, None)
        self._fired("replica_lag_begin" if opening else "replica_lag_end",
                    f"fault:replica-lag:{'begin' if opening else 'end'}",
                    node=node.node_id, extra_lag_s=extra_lag_s)

    # ------------------------------------------------------------------
    # Router staleness hook
    # ------------------------------------------------------------------
    def effective_lag_s(self, replica: Node, now_s: float) -> float:
        """The replica's apply lag as the router should see it now:
        infinite while partitioned, base + extra under a slow-follower
        window, base otherwise."""
        if self.replication[replica.shard_id].is_frozen(replica.node_id):
            return float("inf")
        return replica.replication_lag_s \
            + self._extra_lag_s.get(replica.node_id, 0.0)


__all__ = ["FleetFaultInjector", "ShardReplication"]
