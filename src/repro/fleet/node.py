"""Fleet nodes: a DatabaseServer with a role, a lifecycle, and a plug.

The PolarDB storage/compute-separation material grounds the model:
compute nodes are stateless, so whole nodes can be added or parked
independently of the data they serve.  Each :class:`Node` wraps one
:class:`~repro.db.server.DatabaseServer` (all nodes share one virtual
clock) and carries

* a **role** --- the primary of its shard, or a read replica;
* a **lifecycle** --- ``warming -> active -> draining -> parked`` with
  seeded boot latencies and a drain grace period; and
* **node-scope power** --- while powered the node draws its server's
  wall power (static floor + cores); while parked it draws only an
  idle-parked floor (fans + BMC), the power the elastic controller is
  racing to reclaim.

:class:`Fleet` aggregates the nodes: fleet-wide power/energy for the
meter, the active-node timeline for the figure, and the fleet-scope
request-conservation invariant for simsan.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.analysis.sanitizer import invariant
from repro.db.server import DatabaseServer, drain_worker_queue
from repro.sim.engine import Simulator

#: Node roles.
PRIMARY = "primary"
REPLICA = "replica"

#: Boot latency of an unpark, drawn uniformly from this range (seconds)
#: on the unparking component's seeded lifecycle stream.
BOOT_LATENCY_S = (1.5, 4.0)


class NodeState(enum.Enum):
    """Lifecycle states; only these transitions occur:

    ``parked -> warming`` (unpark; boot latency runs),
    ``warming -> active`` (boot complete),
    ``active -> draining`` (controller parks a replica; queues migrate),
    ``draining -> parked`` (in-flight work finished, grace elapsed),
    ``any powered state -> crashed`` (fail-stop; terminal --- recovery
    is failover to a sibling, never reboot of the corpse).
    """

    WARMING = "warming"
    ACTIVE = "active"
    DRAINING = "draining"
    PARKED = "parked"
    CRASHED = "crashed"


class Node:
    """One compute node of the fleet."""

    def __init__(self, sim: Simulator, node_id: int, shard_id: int,
                 role: str, server: DatabaseServer,
                 parked_floor_watts: float,
                 replication_lag_s: float = 0.0,
                 start_parked: bool = False):
        if role not in (PRIMARY, REPLICA):
            raise ValueError(f"unknown node role {role!r}")
        if role == PRIMARY and start_parked:
            raise ValueError("a shard's primary cannot start parked")
        self.sim = sim
        self.node_id = node_id
        self.shard_id = shard_id
        self.role = role
        self.server = server
        self.parked_floor_watts = parked_floor_watts
        #: Apply lag of this replica (0.0 for primaries): a read landing
        #: within this of the shard's last write would observe a stale
        #: snapshot.
        self.replication_lag_s = replication_lag_s
        self.state = NodeState.PARKED if start_parked else NodeState.ACTIVE
        #: The owning :class:`Fleet`'s transition hook, once it has one.
        self._on_transition: Optional[Callable] = None
        #: Energy (J) of completed lifecycle segments; the open segment
        #: is integrated on demand by :meth:`energy_joules_at`.
        self._segment_energy_j = 0.0
        self._segment_start_s = sim.now
        #: Server cumulative energy at the start of the open powered
        #: segment (meaningless while parked).
        self._server_energy_base_j = 0.0 if start_parked \
            else server.wall_energy()
        self.boots = 0
        self.drains = 0
        #: Fail-stop bookkeeping (chaos cells): requests that died on
        #: this node when it crashed, and the crash instant (None while
        #: healthy) the heartbeat detector measures its timeout from.
        self.lost_on_crash = 0
        self.crashed_at_s: Optional[float] = None
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("fleet", f"node-{node_id}")

    def __repr__(self) -> str:
        return (f"Node({self.node_id}, shard={self.shard_id}, "
                f"{self.role}, {self.state.value})")

    # ------------------------------------------------------------------
    # Power / energy (node scope: parked nodes draw the floor only)
    # ------------------------------------------------------------------
    def power_watts(self) -> float:
        """Instantaneous node draw (W)."""
        if self.state is NodeState.PARKED:
            return self.parked_floor_watts
        if self.state is NodeState.CRASHED:
            return 0.0  # fail-stop: the PSU is as dead as the node
        return self.server.wall_power()

    def energy_joules_at(self, now_s: float) -> float:
        """Node energy consumed up to ``now_s`` (J)."""
        if self.state is NodeState.PARKED:
            open_j = self.parked_floor_watts * (now_s - self._segment_start_s)
        elif self.state is NodeState.CRASHED:
            open_j = 0.0
        else:
            open_j = self.server.wall_energy() - self._server_energy_base_j
        return self._segment_energy_j + open_j

    def _transition(self, new_state: NodeState) -> None:
        now_s = self.sim.now
        # Close the open energy segment under the *old* state's rule.
        if self.state is NodeState.PARKED:
            self._segment_energy_j += \
                self.parked_floor_watts * (now_s - self._segment_start_s)
        elif self.state is NodeState.CRASHED:
            pass  # a crashed segment integrates to zero
        else:
            self._segment_energy_j += \
                self.server.wall_energy() - self._server_energy_base_j
        # Rebase on every transition: the next powered segment counts
        # server energy from here (integrated energy accrued while
        # parked belongs to nobody --- the floor term covers it).
        self._server_energy_base_j = self.server.wall_energy()
        self._segment_start_s = now_s
        old_state, self.state = self.state, new_state
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track,
                                f"node:{new_state.value}", now_s,
                                shard=self.shard_id, role=self.role,
                                was=old_state.value)
        if self._on_transition is not None:
            self._on_transition(self, old_state, new_state)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def unpark(self, boot_latency_s: float,
               on_active: Optional[Callable] = None) -> None:
        """``parked -> warming``; after ``boot_latency_s`` the node goes
        active (drawing powered-but-idle watts the whole way --- boot
        is paid for before it serves anything)."""
        if self.state is not NodeState.PARKED:
            raise RuntimeError(f"cannot unpark {self!r}")
        self._transition(NodeState.WARMING)
        self.boots += 1

        def boot_complete() -> None:
            self._transition(NodeState.ACTIVE)
            if on_active is not None:
                on_active(self)

        self.sim.schedule(boot_latency_s, boot_complete)

    def begin_drain(self, migrate_fn: Callable, grace_s: float,
                    poll_s: float) -> None:
        """``active -> draining``: the router stops targeting this node
        immediately, ``migrate_fn(node)`` moves its queued requests to
        shard siblings, in-flight transactions finish in place, and the
        node parks once idle (first checked after ``grace_s``, then
        every ``poll_s``)."""
        if self.state is not NodeState.ACTIVE:
            raise RuntimeError(f"cannot drain {self!r}")
        if self.role == PRIMARY:
            raise RuntimeError("a shard's primary is never drained")
        self._transition(NodeState.DRAINING)
        self.drains += 1
        migrate_fn(self)
        self.sim.schedule(grace_s, lambda: self._try_park(poll_s))

    def _try_park(self, poll_s: float) -> None:
        if self.state is not NodeState.DRAINING:
            return
        busy = any(w.current is not None for w in self.server.workers) \
            or self.server.total_queue_length() > 0
        if busy:
            self.sim.schedule(poll_s, lambda: self._try_park(poll_s))
            return
        self._transition(NodeState.PARKED)

    def promote(self) -> None:
        """Replica -> primary (failover): the promoted node accepts the
        shard's writes and serves reads with zero apply lag from here
        on.  Only an active node can be promoted."""
        if self.state is not NodeState.ACTIVE:
            raise RuntimeError(f"cannot promote {self!r}")
        self.role = PRIMARY
        self.replication_lag_s = 0.0

    def crash(self) -> List:
        """Fail-stop: the node dies mid-instruction, returning the
        requests that died with it (queued plus in-flight).

        Every core stalls (banking nothing useful: the completion event
        is cancelled and never rescheduled), the queues are emptied, and
        --- like queue migration --- each dead request's ``submitted``
        credit leaves the server with it, so per-node and fleet books
        stay balanced; the caller accounts the corpses as losses.
        Idempotent: crashing a crashed node is a no-op.
        """
        if self.state is NodeState.CRASHED:
            return []
        lost: List = []
        for worker in self.server.workers:
            lost.extend(drain_worker_queue(worker))
            if worker.current is not None:
                lost.append(worker.current)
                worker.current = None
            worker.core.stall()
        self.server.submitted -= len(lost)
        self.lost_on_crash += len(lost)
        self.crashed_at_s = self.sim.now
        self._transition(NodeState.CRASHED)
        return lost


class Fleet:
    """All nodes of one fleet experiment, on one virtual clock."""

    def __init__(self, sim: Simulator, nodes: List[Node]):
        self.sim = sim
        self.nodes = nodes
        #: (time_s, active node count), appended on every transition
        #: that changes the count (plus the initial sample at build).
        self.node_timeline: List[tuple] = [(sim.now, self.active_count())]
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("fleet", "nodes")
        for node in nodes:
            node._on_transition = self._note_transition

    def active_count(self) -> int:
        return sum(1 for n in self.nodes if n.state is NodeState.ACTIVE)

    def powered_count(self) -> int:
        return sum(1 for n in self.nodes
                   if n.state is not NodeState.PARKED)

    def _note_transition(self, node: Node, old_state: NodeState,
                         new_state: NodeState) -> None:
        count = self.active_count()
        if not self.node_timeline or self.node_timeline[-1][1] != count:
            self.node_timeline.append((self.sim.now, count))
        if self.tracer.enabled:
            self.tracer.counter(self.trace_track, "active_nodes",
                                self.sim.now, active=count,
                                powered=self.powered_count())

    # ------------------------------------------------------------------
    # Fleet-scope power/energy (what the wall meter sees)
    # ------------------------------------------------------------------
    def wall_power(self) -> float:
        return sum(n.power_watts() for n in self.nodes)

    def wall_energy(self) -> float:
        now_s = self.sim.now
        return sum(n.energy_joules_at(now_s) for n in self.nodes)

    def total_queue_length(self) -> int:
        return sum(n.server.total_queue_length() for n in self.nodes)

    def close(self) -> None:
        """Unlink the nodes from the fleet, and each node's server from
        its run (:meth:`DatabaseServer.close`), once the run is over:
        a node's transition hook points back at this fleet."""
        for node in self.nodes:
            node._on_transition = None
            node.server.close()

    # ------------------------------------------------------------------
    # simsan: conservation of requests at fleet scope
    # ------------------------------------------------------------------
    def sanitize_accounting(self) -> None:
        """Every request submitted anywhere in the fleet is, at any
        instant, exactly one of: completed, rejected, in flight, or
        queued --- summed across nodes, so cross-node queue migration
        (which moves both the request and its ``submitted`` credit)
        can neither lose nor double-count.  A crash moves the dead
        requests' credit out the same way (``Node.crash`` returns the
        corpses for the experiment to count as losses), so the books
        balance through fail-stops too.  Per-node books are audited
        as well, since migration keeps them individually balanced."""
        submitted = sum(n.server.submitted for n in self.nodes)
        completed = sum(w.completed for n in self.nodes
                        for w in n.server.workers)
        rejected = sum(n.server.rejected for n in self.nodes)
        in_flight = sum(1 for n in self.nodes for w in n.server.workers
                        if w.current is not None)
        queued = self.total_queue_length()
        invariant(submitted == completed + rejected + in_flight + queued,
                  "fleet-accounting",
                  "requests were lost or double-counted across nodes",
                  submitted=submitted, completed=completed,
                  rejected=rejected, in_flight=in_flight, queued=queued,
                  now=self.sim.now)
        for node in self.nodes:
            node.server.sanitize_accounting()


__all__ = ["Fleet", "Node", "NodeState", "PRIMARY", "REPLICA"]
