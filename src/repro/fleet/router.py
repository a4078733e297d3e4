"""Cluster routing: shard by key, writes to primaries, reads to any node
that has applied the key's last commit.

The router is the fleet's request-handler tier.  Each request carries a
key drawn from the fleet's keyspace; ``key % shards`` picks the shard,
and writes execute on the shard's primary.

**One freshness model.**  Each :class:`ShardState` owns a
:class:`ShardReplication`: the primary's WAL under group commit, the
LSN of every key's last commit, and where each replica has applied the
log to.  A write that completes on the primary commits its key at the
next LSN; a replica applies each log force its apply lag after the
force --- the node's base lag plus any slow-follower window, while a
partition pins it where it is.  :meth:`ShardState.fresh` is the whole
rule: the primary is always fresh, and a replica is fresh for key
``k`` once its applied LSN has reached ``k``'s commit LSN.  PolarDB's
LogIndex answers the same question per page for its read-only nodes;
here the unit is the key.

Reads rotate over the shard's nodes, the primary included, and go to
the first one that is active, breaker-allowed and fresh for the key.
A read that passes over a stale replica is a **stale bounce**: counted
(:attr:`ClusterRouter.stale_read_bounces`, surfaced on the experiment
result) and traced as a ``router:stale-read`` instant.  Only when no
node can serve it fresh --- the primary is down or breaker-vetoed ---
is a read served degraded on a stale replica
(:attr:`ClusterRouter.stale_reads_served`).

Failure semantics (PR 9): when every node that could serve a request is
parked, draining, warming, or crashed, :meth:`ClusterRouter.route`
raises the typed :class:`NoActiveNodeError` and the experiment sheds
the request.  Under a chaos plan the router is additionally **armed**
(:meth:`ClusterRouter.arm_self_healing`) and becomes self-healing:

* a per-node **circuit breaker** (closed -> open after
  ``BREAKER_FAILURE_THRESHOLD`` consecutive failures -> half-open probe
  after ``BREAKER_RESET_S``) keeps read routing off nodes that recently
  failed to serve;
* a **bounded retry-with-backoff**: instead of shedding immediately, a
  request with no active target is re-routed ``RETRY_BACKOFF_S * 2**k``
  later, up to ``RETRY_LIMIT`` times --- failover usually lands inside
  that envelope, so retried requests survive the unavailability window.

None of the self-healing machinery touches an unarmed router, and
:meth:`decision_counts` only grows its chaos counters when armed.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.request import Request
from repro.fleet.node import Node, NodeState
from repro.sim.engine import Simulator

#: Read-only transaction types per benchmark family; everything else
#: mutates and must execute on the primary.  (TPC-C: Section 2.2 of the
#: spec; TPC-E: the read-only customer/market transactions; YCSB: reads
#: and scans.)
_READ_ONLY_TYPES: Dict[str, FrozenSet[str]] = {
    "tpcc": frozenset({"OrderStatus", "StockLevel"}),
    "tpce": frozenset({"TradeStatus", "MarketWatch", "SecurityDetail",
                       "CustomerPosition", "TradeLookup", "BrokerVolume"}),
    "ycsb": frozenset({"Read", "Scan"}),
}


def read_only_types(benchmark: str) -> FrozenSet[str]:
    """The benchmark's read-only transaction-type names."""
    family = "ycsb" if benchmark.startswith("ycsb") else benchmark
    try:
        return _READ_ONLY_TYPES[family]
    except KeyError:
        raise ValueError(f"no read/write split known for {benchmark!r}")


class NoActiveNodeError(RuntimeError):
    """A shard has no node able to serve a routed request.

    Raised by :meth:`ClusterRouter.route` when the write primary is not
    active (crashed, or mid-transition) and, for reads, no active
    replica can stand in either.  The experiment catches it and sheds
    the request --- offered-and-rejected, never silently dropped.
    """

    def __init__(self, shard_id: int, kind: str):
        super().__init__(f"shard {shard_id} has no active node to "
                         f"serve a {kind}")
        self.shard_id = shard_id
        self.kind = kind


#: Consecutive routing failures that trip a node's breaker open.
BREAKER_FAILURE_THRESHOLD = 3
#: Open -> half-open probe delay on the virtual clock.
BREAKER_RESET_S = 0.5
#: Bounded retry-with-backoff when a shard has no active target: retry
#: ``k`` re-routes ``RETRY_BACKOFF_S * 2**k`` later; after the last
#: retry the request is shed.
RETRY_LIMIT = 3
RETRY_BACKOFF_S = 0.05

#: Circuit-breaker states (DESIGN.md "Fleet failure model" has the
#: transition diagram).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-node routing breaker on the virtual clock.

    Closed counts consecutive failures; at
    ``BREAKER_FAILURE_THRESHOLD`` it opens and the router stops
    considering the node for reads.  After ``BREAKER_RESET_S`` the next
    :meth:`allows` check moves it to half-open --- one probe may route;
    a success closes it, a failure re-opens it (and restarts the reset
    clock).
    """

    __slots__ = ("state", "failures", "opened_at_s")

    def __init__(self):
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.opened_at_s = 0.0

    def allows(self, now_s: float) -> bool:
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now_s - self.opened_at_s >= BREAKER_RESET_S:
                self.state = BREAKER_HALF_OPEN
                return True  # the probe
            return False
        return True  # half-open: probing

    def record_failure(self, now_s: float) -> bool:
        """Count a failure; True when this one tripped the breaker."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_OPEN
            self.opened_at_s = now_s
            self.failures = 0
            return True
        self.failures += 1
        if self.state == BREAKER_CLOSED \
                and self.failures >= BREAKER_FAILURE_THRESHOLD:
            self.state = BREAKER_OPEN
            self.opened_at_s = now_s
            self.failures = 0
            return True
        return False

    def record_success(self) -> None:
        self.state = BREAKER_CLOSED
        self.failures = 0


#: Commits per group-commit force on each shard's primary WAL --- the
#: durability window a crash can lose (Shore-MT's default is 100; the
#: fleet uses fewer so the chaos cells exercise real loss without
#: needing thousands of writes).
GROUP_COMMIT_SIZE = 8


class ShardReplication:
    """One shard's WAL, its keys' commit LSNs, and the replicas' apply
    positions.

    The primary logs one row image + COMMIT (two LSNs) per completed
    write under group commit, so a crash loses exactly the buffered,
    unforced tail.  Nothing reads a record's contents, so the log is
    counters: the next LSN, the buffered commits and one entry per
    force.  A replica has applied the longest forced prefix
    whose force is at least its apply lag old; that position never
    falls while the lag grows, and only a promotion's trim moves it
    back.
    """

    def __init__(self, sim: Simulator, shard_id: int):
        self.sim = sim
        self.shard_id = shard_id
        self.next_lsn = 1
        #: Commits in the unforced tail; a full group forces it.
        self.buffered_commits = 0
        #: Time and last LSN (a COMMIT's) of each log force, in time
        #: order.  Every force makes exactly one full group durable, so
        #: the durable log is ``GROUP_COMMIT_SIZE`` commits --- two
        #: records each --- per entry.
        self.force_s: List[float] = []
        self.force_lsn: List[int] = []
        #: key -> LSN of its last commit.  Bounded by the keyspace; a
        #: commit lost to a crash keeps its LSN, so a replica serves the
        #: key again only once it is past it.
        self.key_lsn: Dict[int, int] = {}
        #: Commits lost so far: buffered tails dropped by crashes plus
        #: durable-but-never-shipped records trimmed at promotion.
        self.lost_commits = 0
        #: node id -> LSN applied when its lag last grew or a partition
        #: cut it off: its apply position never falls below this.
        self._floor: Dict[int, int] = {}
        #: node id -> slow-follower lag on top of the node's base lag.
        self._added_lag_s: Dict[int, float] = {}
        self._partitioned: Set[int] = set()

    # ------------------------------------------------------------------
    # Primary-side logging
    # ------------------------------------------------------------------
    def on_write_committed(self, key: int) -> None:
        """A write of ``key`` completed on the primary: its row image
        and COMMIT take the next two LSNs under group commit."""
        commit_lsn = self.next_lsn + 1
        self.next_lsn += 2
        self.key_lsn[key] = commit_lsn
        self.buffered_commits += 1
        if self.buffered_commits >= GROUP_COMMIT_SIZE:
            self.buffered_commits = 0
            self.force_s.append(self.sim.now)
            self.force_lsn.append(commit_lsn)

    def on_primary_crash(self) -> int:
        """The primary fail-stopped: the buffered tail is gone.  Counts
        and returns the commits it took with it."""
        buffered, self.buffered_commits = self.buffered_commits, 0
        self.lost_commits += buffered
        return buffered

    # ------------------------------------------------------------------
    # Replica apply positions
    # ------------------------------------------------------------------
    def applied_lsn(self, node: Node, now_s: float) -> int:
        """The LSN through which ``node`` has applied the log at
        ``now_s``: the last force at least its lag old (base plus any
        slow-follower window), never below its floor; a partitioned
        replica stays at its floor."""
        node_id = node.node_id
        floor = self._floor.get(node_id, 0)
        if node_id in self._partitioned:
            return floor
        lag_s = node.replication_lag_s + self._added_lag_s.get(node_id, 0.0)
        forced = bisect_right(self.force_s, now_s - lag_s)
        if forced and self.force_lsn[forced - 1] > floor:
            return self.force_lsn[forced - 1]
        return floor

    def _pin(self, node: Node) -> None:
        self._floor[node.node_id] = self.applied_lsn(node, self.sim.now)

    def freeze_replica(self, node: Node) -> None:
        """Partition begin: the replica applies nothing new until
        healed."""
        self._pin(node)
        self._partitioned.add(node.node_id)

    def heal_replica(self, node: Node) -> None:
        self._partitioned.discard(node.node_id)

    def add_lag(self, node: Node, extra_s: float) -> None:
        """A slow-follower window opens (``extra_s > 0``) or closes
        (``extra_s < 0``) on ``node``; what it has applied stays
        applied."""
        self._pin(node)
        lag_s = self._added_lag_s.get(node.node_id, 0.0) + extra_s
        if lag_s > 0.0:
            self._added_lag_s[node.node_id] = lag_s
        else:
            self._added_lag_s.pop(node.node_id, None)

    # ------------------------------------------------------------------
    # Promotion (failover)
    # ------------------------------------------------------------------
    def promote_to(self, node: Node, now_s: float) -> int:
        """Re-point the shard's log at ``node``'s applied prefix and
        return how many records its redo pass replays.

        Durable commits beyond the prefix were never shipped --- they
        join :attr:`lost_commits` and the log is trimmed, so the new
        primary's history ends exactly where its replay does, and no
        replica's floor stays above it.
        """
        applied = self.applied_lsn(node, now_s)
        kept = bisect_right(self.force_lsn, applied)
        self.lost_commits += \
            GROUP_COMMIT_SIZE * (len(self.force_lsn) - kept)
        del self.force_s[kept:]
        del self.force_lsn[kept:]
        for node_id, floor in self._floor.items():
            if floor > applied:
                self._floor[node_id] = applied
        # An UPDATE and a COMMIT per kept write.
        return 2 * GROUP_COMMIT_SIZE * kept


class ShardState:
    """One shard's routing state: its nodes, its read rotation and its
    replication model."""

    def __init__(self, shard_id: int, primary: Node,
                 replicas: List[Node]):
        self.shard_id = shard_id
        self.primary = primary
        self.replicas = replicas
        self.replication = ShardReplication(primary.sim, shard_id)
        self._rr_index = 0
        #: Cumulative arrivals routed to this shard (reads + writes);
        #: the elastic controller differentiates this for its windowed
        #: load signal.
        self.offered = 0

    def active_nodes(self) -> List[Node]:
        nodes = [self.primary] if self.primary.state is NodeState.ACTIVE \
            else []
        nodes.extend(r for r in self.replicas
                     if r.state is NodeState.ACTIVE)
        return nodes

    def fresh(self, node: Node, key: int, now_s: float) -> bool:
        """Whether a read of ``key`` on ``node`` sees the key's last
        commit: always on the primary, and on a replica once it has
        applied that commit's LSN."""
        replication = self.replication
        return node is self.primary or replication.applied_lsn(
            node, now_s) >= replication.key_lsn.get(key, 0)


class ClusterRouter:
    """Routes client requests onto fleet nodes."""

    def __init__(self, sim: Simulator, shards: List[ShardState],
                 read_types: FrozenSet[str]):
        if not shards:
            raise ValueError("need at least one shard")
        self.sim = sim
        self.shards = shards
        self.read_types = read_types
        self.routed_writes = 0
        self.routed_reads = 0
        #: Reads served fresh by a replica, and reads that passed over
        #: a stale replica on their way to a fresh node.
        self.replica_reads = 0
        self.stale_read_bounces = 0
        #: Self-healing machinery; inert until a chaos plan arms it.
        self.armed = False
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._on_shed: Optional[Callable[[Request, int], None]] = None
        self.breaker_trips = 0
        self.breaker_skips = 0
        self.retries = 0
        self.shed_no_active = 0
        #: Degraded reads: served on a stale replica because the
        #: primary could not take the bounce (failover in progress).
        self.stale_reads_served = 0
        #: Requests waiting on a scheduled retry (armed routers only);
        #: :meth:`flush_pending_retries` sheds any left at end of run.
        self._in_retry: List[Tuple[Request, ShardState]] = []
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("fleet", "router")
        for shard in shards:
            for node in (shard.primary, *shard.replicas):
                node.server.add_completion_listener(
                    partial(self._completed, shard, node))

    def _completed(self, shard: ShardState, node: Node,
                   request: Request) -> None:
        # A write commits when it completes on the node that is the
        # shard's primary *now*, so a promoted replica logs from the
        # moment it takes over.
        if shard.primary is node and request.txn_type not in self.read_types:
            shard.replication.on_write_committed(request.key)

    # ------------------------------------------------------------------
    # Self-healing arming (chaos cells only)
    # ------------------------------------------------------------------
    def arm_self_healing(self,
                         on_shed: Callable[[Request, int], None]) -> None:
        """Arm breakers and retry.  ``on_shed(request, shard_id)``
        absorbs requests that exhaust their retries (the experiment
        counts them offered-and-rejected)."""
        self.armed = True
        self._on_shed = on_shed
        self._breakers = {
            node.node_id: CircuitBreaker()
            for shard in self.shards
            for node in [shard.primary] + shard.replicas}

    def _breaker_allows(self, node: Node, now_s: float) -> bool:
        if not self.armed:
            return True
        return self._breakers[node.node_id].allows(now_s)

    def _note_failure(self, node: Node, now_s: float) -> None:
        if not self.armed:
            return
        if self._breakers[node.node_id].record_failure(now_s):
            self.breaker_trips += 1
            if self.tracer.enabled:
                self.tracer.instant(self.trace_track,
                                    "router:breaker-open", now_s,
                                    node=node.node_id,
                                    shard=node.shard_id)

    def _note_success(self, node: Node) -> None:
        if self.armed:
            self._breakers[node.node_id].record_success()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, request: Request, key: int) -> Optional[Node]:
        """Pick the serving node for ``request`` and submit it.

        Returns the node, or ``None`` when an armed router deferred the
        request to a scheduled retry (or shed it through ``on_shed``).
        Unarmed, a shard with no active target raises
        :class:`NoActiveNodeError` instead.  The key rides on the
        request, so a write commits it when it completes.
        """
        request.key = key
        shard = self.shards[key % len(self.shards)]
        shard.offered += 1
        return self._route_attempt(request, shard, 0)

    def _route_attempt(self, request: Request, shard: ShardState,
                       attempt: int) -> Optional[Node]:
        now_s = self.sim.now
        is_read = request.txn_type in self.read_types
        if attempt == 0:
            if is_read:
                self.routed_reads += 1
            else:
                self.routed_writes += 1
        else:
            self._in_retry.remove((request, shard))
        try:
            if is_read:
                target = self._pick_read_target(shard, request.key, now_s)
            else:
                target = self._pick_write_target(shard, now_s)
        except NoActiveNodeError:
            if not self.armed:
                raise
            if attempt < RETRY_LIMIT:
                self.retries += 1
                delay_s = RETRY_BACKOFF_S * (2 ** attempt)
                self._in_retry.append((request, shard))
                self.sim.schedule(delay_s, partial(self._route_attempt,
                                                   request, shard,
                                                   attempt + 1))
                if self.tracer.enabled:
                    self.tracer.instant(self.trace_track, "router:retry",
                                        now_s, shard=shard.shard_id,
                                        attempt=attempt + 1,
                                        backoff_s=delay_s)
                return None
            self.shed_no_active += 1
            if self.tracer.enabled:
                self.tracer.instant(self.trace_track, "router:shed",
                                    now_s, shard=shard.shard_id,
                                    attempts=attempt + 1)
            assert self._on_shed is not None
            self._on_shed(request, shard.shard_id)
            return None
        if self.tracer.enabled:
            self.tracer.counter(self.trace_track,
                                f"shard_offered.s{shard.shard_id}",
                                now_s, offered=shard.offered)
        self._note_success(target)
        target.server.submit(request)
        return target

    def _pick_write_target(self, shard: ShardState, now_s: float) -> Node:
        # Writes have exactly one home; breakers never veto an active
        # primary (they gate read targeting, where siblings exist).
        primary = shard.primary
        if primary.state is NodeState.ACTIVE:
            return primary
        self._note_failure(primary, now_s)
        raise NoActiveNodeError(shard.shard_id, "write")

    def _pick_read_target(self, shard: ShardState, key: int,
                          now_s: float) -> Node:
        # The rotation runs over every node of the shard, primary
        # first; the read takes the first usable node fresh for its key.
        nodes = [shard.primary, *shard.replicas]
        count = len(nodes)
        stale: Optional[Node] = None
        for offset in range(count):
            index = (shard._rr_index + offset) % count
            node = nodes[index]
            if not self._usable_for_read(node, now_s):
                continue
            if not shard.fresh(node, key, now_s):
                if stale is None:
                    stale = node
                continue
            shard._rr_index = (index + 1) % count
            if stale is not None:
                self._bounced(shard, stale, key, now_s)
            if index:  # index 0 is the primary
                self.replica_reads += 1
            return node
        self._note_failure(shard.primary, now_s)
        if stale is None:
            raise NoActiveNodeError(shard.shard_id, "read")
        # Primary down (failover in progress): a stale answer beats no
        # answer --- serve the read degraded on the replica (counted
        # apart from the fresh replica_reads).
        self.stale_reads_served += 1
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "router:stale-served",
                                now_s, shard=shard.shard_id,
                                replica=stale.node_id)
        return stale

    def _bounced(self, shard: ShardState, replica: Node, key: int,
                 now_s: float) -> None:
        self.stale_read_bounces += 1
        if self.tracer.enabled:
            replication = shard.replication
            self.tracer.instant(
                self.trace_track, "router:stale-read", now_s,
                shard=shard.shard_id, replica=replica.node_id,
                applied_lsn=replication.applied_lsn(replica, now_s),
                key_lsn=replication.key_lsn[key])

    def _usable_for_read(self, node: Node, now_s: float) -> bool:
        if node.state is not NodeState.ACTIVE:
            return False
        if not self._breaker_allows(node, now_s):
            self.breaker_skips += 1
            return False
        return True

    def flush_pending_retries(self) -> int:
        """End of run: requests still waiting on a scheduled retry will
        never re-route --- shed them so the books close (offered and
        rejected, never silently censored)."""
        flushed, self._in_retry = self._in_retry, []
        for request, shard in flushed:
            self.shed_no_active += 1
            assert self._on_shed is not None
            self._on_shed(request, shard.shard_id)
        return len(flushed)

    def decision_counts(self) -> Dict[str, int]:
        """Deterministically ordered router decision counters.

        The four routing counters always; the self-healing counters
        only on an armed router.
        """
        counts = {
            "routed_writes": self.routed_writes,
            "routed_reads": self.routed_reads,
            "replica_reads": self.replica_reads,
            "stale_read_bounces": self.stale_read_bounces,
        }
        if self.armed:
            counts["breaker_trips"] = self.breaker_trips
            counts["breaker_skips"] = self.breaker_skips
            counts["retries"] = self.retries
            counts["shed_no_active"] = self.shed_no_active
            counts["stale_reads_served"] = self.stale_reads_served
        return counts


__all__ = ["BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN",
           "CircuitBreaker", "ClusterRouter", "GROUP_COMMIT_SIZE",
           "NoActiveNodeError", "ShardReplication", "ShardState",
           "read_only_types"]
