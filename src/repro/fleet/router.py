"""Cluster routing: shard by key, reads to replicas, writes to primaries.

The router is the fleet's request-handler tier.  Each request carries a
key drawn from the configured keyspace; ``key % shards`` picks the
shard.  Writes always execute on the shard's primary (and advance the
shard's last-write clock).  Reads round-robin over the shard's *active*
replicas --- but a replica only serves a read if its replication lag
has passed since the shard's last write; otherwise the read would
observe a stale snapshot and is **bounced to the primary**.  Those
bounces are the fleet tier's new latency hazard class: they are counted
(:attr:`ClusterRouter.stale_read_bounces`, surfaced on the experiment
result), traced as ``router:stale-read`` instants, and they concentrate
read load on the primary exactly when it is busiest (just after
writes).

Failure semantics (PR 9): when every node that could serve a request is
parked, draining, warming, or crashed, :meth:`ClusterRouter.route`
raises the typed :class:`NoActiveNodeError` and the experiment sheds
the request.  Under a chaos plan the router is additionally **armed**
with a :class:`RouterPolicy` (:meth:`ClusterRouter.arm_self_healing`)
and becomes self-healing:

* a per-node **circuit breaker** (closed -> open after
  ``breaker_failure_threshold`` consecutive failures -> half-open probe
  after ``breaker_reset_s``) keeps read routing off nodes that recently
  failed to serve;
* a **bounded retry-with-backoff**: instead of shedding immediately, a
  request with no active target is re-routed ``retry_backoff_s * 2**k``
  later, up to ``retry_limit`` times --- failover usually lands inside
  that envelope, so retried requests survive the unavailability window;
* optional **hedged reads**: the read targets the less-loaded of the
  next two active replicas (the power-of-two-choices stand-in for
  duplicate-and-race hedging).

None of the self-healing machinery touches an unarmed router: healthy
cells stay byte-identical to the PR 8 pins, and
:meth:`decision_counts` only grows its chaos counters when armed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

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


@dataclass(frozen=True)
class RouterPolicy:
    """Self-healing knobs, armed on the router only under chaos plans."""

    breaker_failure_threshold: int = 3
    breaker_reset_s: float = 0.5
    retry_limit: int = 3
    retry_backoff_s: float = 0.05
    hedged_reads: bool = False

    @classmethod
    def from_config(cls, config) -> "RouterPolicy":
        """Lift the routing knobs off a FleetConfig."""
        return cls(
            breaker_failure_threshold=config.breaker_failure_threshold,
            breaker_reset_s=config.breaker_reset_s,
            retry_limit=config.route_retry_limit,
            retry_backoff_s=config.route_retry_backoff_s,
            hedged_reads=config.hedged_reads)


#: Circuit-breaker states (DESIGN.md "Fleet failure model" has the
#: transition diagram).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-node routing breaker on the virtual clock.

    Closed counts consecutive failures; at the threshold it opens and
    the router stops considering the node for reads.  After
    ``reset_s`` the next :meth:`allows` check moves it to half-open ---
    one probe may route; a success closes it, a failure re-opens it
    (and restarts the reset clock).
    """

    __slots__ = ("threshold", "reset_s", "state", "failures",
                 "opened_at_s")

    def __init__(self, threshold: int, reset_s: float):
        self.threshold = threshold
        self.reset_s = reset_s
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.opened_at_s = 0.0

    def allows(self, now_s: float) -> bool:
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now_s - self.opened_at_s >= self.reset_s:
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
        if self.state == BREAKER_CLOSED and self.failures >= self.threshold:
            self.state = BREAKER_OPEN
            self.opened_at_s = now_s
            self.failures = 0
            return True
        return False

    def record_success(self) -> None:
        self.state = BREAKER_CLOSED
        self.failures = 0


class ShardState:
    """One shard's routing state: its nodes and replication clock."""

    def __init__(self, shard_id: int, primary: Node,
                 replicas: List[Node]):
        self.shard_id = shard_id
        self.primary = primary
        self.replicas = replicas
        #: Virtual time of the last write routed to this shard; replicas
        #: within their lag of it are stale for reads.
        self.last_write_s = float("-inf")
        self._rr_index = 0
        #: Cumulative arrivals routed to this shard (reads + writes);
        #: the elastic controller differentiates this for its windowed
        #: load signal.
        self.offered = 0
        self.stale_read_bounces = 0

    def active_nodes(self) -> List[Node]:
        nodes = [self.primary] if self.primary.state is NodeState.ACTIVE \
            else []
        nodes.extend(r for r in self.replicas
                     if r.state is NodeState.ACTIVE)
        return nodes

    def next_active_replica(self) -> Optional[Node]:
        """Round-robin over replicas currently active (None if none)."""
        count = len(self.replicas)
        for offset in range(count):
            node = self.replicas[(self._rr_index + offset) % count]
            if node.state is NodeState.ACTIVE:
                self._rr_index = (self._rr_index + offset + 1) % count
                return node
        return None


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
        #: Reads served by a replica (fresh) vs bounced/fallback.
        self.replica_reads = 0
        self.stale_read_bounces = 0
        #: Reads sent to the primary because no replica was active.
        self.replica_fallbacks = 0
        #: Self-healing machinery; inert (None) until a chaos plan arms
        #: it, so healthy cells stay byte-identical to the PR 8 pins.
        self.policy: Optional[RouterPolicy] = None
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._on_shed: Optional[Callable[[Request, int], None]] = None
        self._lag_fn: Optional[Callable[[Node, float], float]] = None
        self.breaker_trips = 0
        self.breaker_skips = 0
        self.hedged_read_switches = 0
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

    # ------------------------------------------------------------------
    # Self-healing arming (chaos cells only)
    # ------------------------------------------------------------------
    def arm_self_healing(self, policy: RouterPolicy,
                         on_shed: Callable[[Request, int], None],
                         lag_fn: Optional[Callable[[Node, float],
                                                   float]] = None) -> None:
        """Arm breakers/retry/hedging.  ``on_shed(request, shard_id)``
        absorbs requests that exhaust their retries (the experiment
        counts them offered-and-rejected); ``lag_fn(replica, now_s)``
        overrides the staleness lag (the chaos injector's partition and
        slow-follower windows feed through it)."""
        self.policy = policy
        self._on_shed = on_shed
        self._lag_fn = lag_fn
        self._breakers = {
            node.node_id: CircuitBreaker(policy.breaker_failure_threshold,
                                         policy.breaker_reset_s)
            for shard in self.shards
            for node in [shard.primary] + shard.replicas}

    def _breaker_allows(self, node: Node, now_s: float) -> bool:
        if self.policy is None:
            return True
        return self._breakers[node.node_id].allows(now_s)

    def _note_failure(self, node: Node, now_s: float) -> None:
        if self.policy is None:
            return
        if self._breakers[node.node_id].record_failure(now_s):
            self.breaker_trips += 1
            if self.tracer.enabled:
                self.tracer.instant(self.trace_track,
                                    "router:breaker-open", now_s,
                                    node=node.node_id,
                                    shard=node.shard_id)

    def _note_success(self, node: Node) -> None:
        if self.policy is not None:
            self._breakers[node.node_id].record_success()

    def _replica_lag_s(self, replica: Node, now_s: float) -> float:
        if self._lag_fn is not None:
            return self._lag_fn(replica, now_s)
        return replica.replication_lag_s

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, request: Request, key: int) -> Optional[Node]:
        """Pick the serving node for ``request`` and submit it.

        Returns the node, or ``None`` when an armed router deferred the
        request to a scheduled retry (or shed it through ``on_shed``).
        Unarmed, a shard with no active target raises
        :class:`NoActiveNodeError` instead.
        """
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
                target = self._pick_read_target(shard, now_s)
            else:
                target = self._pick_write_target(shard, now_s)
        except NoActiveNodeError:
            policy = self.policy
            if policy is None:
                raise
            if attempt < policy.retry_limit:
                self.retries += 1
                delay_s = policy.retry_backoff_s * (2 ** attempt)
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
        if not is_read:
            shard.last_write_s = now_s
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

    def _pick_read_target(self, shard: ShardState, now_s: float) -> Node:
        replica = self._pick_replica(shard, now_s)
        if replica is None:
            if self._usable_for_read(shard.primary, now_s):
                self.replica_fallbacks += 1
                return shard.primary
            self._note_failure(shard.primary, now_s)
            raise NoActiveNodeError(shard.shard_id, "read")
        if now_s - shard.last_write_s < self._replica_lag_s(replica, now_s):
            # The replica has not applied the shard's latest write:
            # serving the read there would return stale data, so it
            # bounces to the primary --- the fleet tier's new latency
            # hazard class.
            if self._usable_for_read(shard.primary, now_s):
                self.stale_read_bounces += 1
                shard.stale_read_bounces += 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        self.trace_track, "router:stale-read", now_s,
                        shard=shard.shard_id, replica=replica.node_id,
                        lag_s=replica.replication_lag_s,
                        since_write_s=now_s - shard.last_write_s)
                return shard.primary
            # Primary down (failover in progress): a stale answer beats
            # no answer --- serve the read degraded on the replica
            # (counted apart from the fresh replica_reads).
            self.stale_reads_served += 1
            if self.tracer.enabled:
                self.tracer.instant(self.trace_track,
                                    "router:stale-served", now_s,
                                    shard=shard.shard_id,
                                    replica=replica.node_id)
            self._note_failure(shard.primary, now_s)
            return replica
        self.replica_reads += 1
        return replica

    def _usable_for_read(self, node: Node, now_s: float) -> bool:
        if node.state is not NodeState.ACTIVE:
            return False
        if not self._breaker_allows(node, now_s):
            self.breaker_skips += 1
            return False
        return True

    def _pick_replica(self, shard: ShardState,
                      now_s: float) -> Optional[Node]:
        replica: Optional[Node] = None
        for _ in range(len(shard.replicas)):
            candidate = shard.next_active_replica()
            if candidate is None:
                return None
            if self._breaker_allows(candidate, now_s):
                replica = candidate
                break
            self.breaker_skips += 1
        if replica is None:
            return None
        if self.policy is not None and self.policy.hedged_reads:
            # Power-of-two-choices hedge: also look at the next active
            # replica and take the shorter queue (ties keep the
            # round-robin pick, so healthy symmetric fleets degrade to
            # plain RR).
            alternate = shard.next_active_replica()
            if alternate is not None and alternate is not replica \
                    and alternate.server.total_queue_length() \
                    < replica.server.total_queue_length():
                self.hedged_read_switches += 1
                replica = alternate
        return replica

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

        The five PR 8 counters always; the self-healing counters only
        on an armed router, so healthy fleet fingerprints are unchanged
        by this PR.
        """
        counts = {
            "routed_writes": self.routed_writes,
            "routed_reads": self.routed_reads,
            "replica_reads": self.replica_reads,
            "stale_read_bounces": self.stale_read_bounces,
            "replica_fallbacks": self.replica_fallbacks,
        }
        if self.policy is not None:
            counts["breaker_trips"] = self.breaker_trips
            counts["breaker_skips"] = self.breaker_skips
            counts["hedged_reads"] = self.hedged_read_switches
            counts["retries"] = self.retries
            counts["shed_no_active"] = self.shed_no_active
            counts["stale_reads_served"] = self.stale_reads_served
        return counts


__all__ = ["BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN",
           "CircuitBreaker", "ClusterRouter", "NoActiveNodeError",
           "RouterPolicy", "ShardState", "read_only_types"]
