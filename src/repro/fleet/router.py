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
the first one that is active and fresh for the key.  A read that
passes over a stale replica is a **stale bounce**: counted
(:attr:`ClusterRouter.stale_read_bounces`, surfaced on the experiment
result) and traced as a ``router:stale-read`` instant.  Only when no
node can serve it fresh --- the primary is down --- is a read served
degraded on a stale replica (:attr:`ClusterRouter.stale_reads_served`).

**One routing path.**  A shard's primary is always active or crashed:
it is built active, only an active replica is promoted, a primary is
never drained, and a crash is terminal (simsan checks both at every
node transition).  So a route fails only while a crashed primary
awaits failover, and every fleet cell handles that the same way:
instead of shedding at once, a request with no node to serve it is
re-routed ``RETRY_BACKOFF_S * 2**k`` later, up to ``RETRY_LIMIT``
times --- failover usually lands inside that envelope --- and then
shed through :attr:`ClusterRouter.on_shed`.  A healthy cell never
takes that path: its primaries are active and always fresh.

:meth:`ClusterRouter.route` stamps the request's ``site`` with its
shard, so whoever hears of it later --- served, shed or lost --- knows
the shard from the request.
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


#: Bounded retry-with-backoff when a shard has no active target: retry
#: ``k`` re-routes ``RETRY_BACKOFF_S * 2**k`` later; after the last
#: retry the request is shed.
RETRY_LIMIT = 3
RETRY_BACKOFF_S = 0.05


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
        self.retries = 0
        self.shed_no_active = 0
        #: Degraded reads: served on a stale replica because the
        #: primary could not take the bounce (failover in progress).
        self.stale_reads_served = 0
        #: ``on_shed(request)`` absorbs every shed request; a fleet
        #: cell hands it its recorder's ``on_rejection``, so a shed
        #: counts as offered-and-rejected at the request's site.
        self.on_shed: Optional[Callable[[Request], None]] = None
        #: Requests waiting on a scheduled retry;
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
    # Routing
    # ------------------------------------------------------------------
    def route(self, request: Request, key: int) -> Optional[Node]:
        """Pick the serving node for ``request`` and submit it.

        Returns the node, or ``None`` when the shard had no node to
        serve it and the request was deferred to a scheduled retry (or
        shed through :attr:`on_shed`).  The key and the shard ride on
        the request (``key``, ``site``), so a write commits the key when
        it completes and its outcome is logged under the shard.
        """
        request.key = key
        shard = self.shards[key % len(self.shards)]
        request.site = shard.shard_id
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
        if is_read:
            target = self._pick_read_target(shard, request.key, now_s)
        elif shard.primary.state is NodeState.ACTIVE:
            target = shard.primary  # writes have exactly one home
        else:
            target = None
        if target is None:
            self._retry_or_shed(request, shard, attempt, now_s)
            return None
        if self.tracer.enabled:
            self.tracer.counter(self.trace_track,
                                f"shard_offered.s{shard.shard_id}",
                                now_s, offered=shard.offered)
        target.server.submit(request)
        return target

    def _retry_or_shed(self, request: Request, shard: ShardState,
                       attempt: int, now_s: float) -> None:
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
            return
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "router:shed",
                                now_s, shard=shard.shard_id,
                                attempts=attempt + 1)
        self._shed(request)

    def _shed(self, request: Request) -> None:
        self.shed_no_active += 1
        if self.on_shed is not None:
            self.on_shed(request)

    def _pick_read_target(self, shard: ShardState, key: int,
                          now_s: float) -> Optional[Node]:
        # The rotation runs over every node of the shard, primary
        # first; the read takes the first active node fresh for its key.
        nodes = [shard.primary, *shard.replicas]
        count = len(nodes)
        stale: Optional[Node] = None
        for offset in range(count):
            index = (shard._rr_index + offset) % count
            node = nodes[index]
            if node.state is not NodeState.ACTIVE:
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
        if stale is None:
            return None
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

    def flush_pending_retries(self) -> int:
        """End of run: requests still waiting on a scheduled retry will
        never re-route --- shed them so the books close (offered and
        rejected, never silently censored)."""
        flushed, self._in_retry = self._in_retry, []
        for request, _shard in flushed:
            self._shed(request)
        return len(flushed)

    def decision_counts(self) -> Dict[str, int]:
        """Deterministically ordered router decision counters."""
        return {
            "routed_writes": self.routed_writes,
            "routed_reads": self.routed_reads,
            "replica_reads": self.replica_reads,
            "stale_read_bounces": self.stale_read_bounces,
            "retries": self.retries,
            "shed_no_active": self.shed_no_active,
            "stale_reads_served": self.stale_reads_served,
        }


__all__ = ["ClusterRouter", "GROUP_COMMIT_SIZE", "ShardReplication",
           "ShardState", "read_only_types"]
