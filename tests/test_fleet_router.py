"""ClusterRouter: sharding, replica reads, stale-read bounces, and the
self-healing machinery (typed no-active errors, circuit breakers,
retry-with-backoff, hedged reads) armed under chaos plans."""

import pytest

from repro.core.request import Request
from repro.core.workload import Workload
from repro.db.server import DatabaseServer, ServerConfig
from repro.fleet.node import Node, NodeState, PRIMARY, REPLICA
from repro.fleet.router import (
    BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN, CircuitBreaker,
    ClusterRouter, NoActiveNodeError, RouterPolicy, ShardState,
    read_only_types,
)
from repro.sim.engine import Simulator

WORKLOAD = Workload("w", 0.050)


def make_node(sim, node_id, role=REPLICA, lag_s=0.05, start_parked=False):
    server = DatabaseServer(sim, ServerConfig(workers=1,
                                              request_handlers=1))
    return Node(sim, node_id, 0, role, server, parked_floor_watts=4.0,
                replication_lag_s=lag_s if role == REPLICA else 0.0,
                start_parked=start_parked)


def make_shard(sim, replicas=1, **kwargs):
    primary = make_node(sim, 0, role=PRIMARY)
    nodes = [make_node(sim, 1 + i, **kwargs) for i in range(replicas)]
    return ShardState(0, primary, nodes)


def request(sim, txn="Write"):
    return Request(WORKLOAD, txn, sim.now, 2.8e-3)


def test_read_only_types_per_family():
    assert read_only_types("tpcc") == {"OrderStatus", "StockLevel"}
    assert "TradeStatus" in read_only_types("tpce")
    assert read_only_types("ycsb-b") == {"Read", "Scan"}
    with pytest.raises(ValueError):
        read_only_types("tpch")


def test_writes_go_to_primary_and_advance_the_write_clock(sim):
    shard = make_shard(sim)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    target = router.route(request(sim, "Write"), key=0)
    assert target is shard.primary
    assert shard.last_write_s == 0.0
    assert router.decision_counts()["routed_writes"] == 1


def test_fresh_read_served_by_replica(sim):
    shard = make_shard(sim, lag_s=0.05)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    # No write ever happened: the replica cannot be stale.
    target = router.route(request(sim, "Read"), key=0)
    assert target is shard.replicas[0]
    assert router.replica_reads == 1
    assert router.stale_read_bounces == 0


def test_stale_read_bounces_to_primary(sim):
    shard = make_shard(sim, lag_s=0.05)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    router.route(request(sim, "Write"), key=0)
    sim.schedule(0.01, lambda: None)
    sim.run()  # 10 ms later: still inside the 50 ms apply lag
    target = router.route(request(sim, "Read"), key=0)
    assert target is shard.primary
    assert router.stale_read_bounces == 1
    assert shard.stale_read_bounces == 1
    sim.schedule(0.1, lambda: None)
    sim.run()  # beyond the lag: the replica caught up
    assert router.route(request(sim, "Read"), key=0) \
        is shard.replicas[0]
    assert router.replica_reads == 1


def test_read_falls_back_to_primary_without_active_replicas(sim):
    shard = make_shard(sim, start_parked=True)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    target = router.route(request(sim, "Read"), key=0)
    assert target is shard.primary
    assert router.replica_fallbacks == 1


def test_round_robin_skips_inactive_replicas(sim):
    shard = make_shard(sim, replicas=3, lag_s=0.0)
    shard.replicas[1]._transition(NodeState.PARKED)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    served = [router.route(request(sim, "Read"), key=0).node_id
              for _ in range(4)]
    assert served == [1, 3, 1, 3]  # node 2 is parked


def test_key_sharding_is_modulo(sim):
    shards = [make_shard(sim), make_shard(sim)]
    shards[1].shard_id = 1
    router = ClusterRouter(sim, shards, frozenset())
    router.route(request(sim), key=5)
    assert shards[1].offered == 1 and shards[0].offered == 0
    router.route(request(sim), key=4)
    assert shards[0].offered == 1


def test_requests_actually_execute_on_the_target(sim):
    shard = make_shard(sim)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    write = request(sim, "Write")
    read = request(sim, "Read")
    router.route(write, key=0)
    router.route(read, key=0)  # stale (lag 50 ms) -> primary too
    sim.run()
    assert write.finish_time is not None
    assert read.finish_time is not None
    assert shard.primary.server.submitted == 2
    assert shard.replicas[0].server.submitted == 0


def test_router_needs_a_shard(sim):
    with pytest.raises(ValueError):
        ClusterRouter(sim, [], frozenset())


# ----------------------------------------------------------------------
# Typed no-active errors (unarmed routers)
# ----------------------------------------------------------------------
def test_unarmed_router_raises_typed_error(sim):
    shard = make_shard(sim, start_parked=True)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    shard.primary.crash()
    with pytest.raises(NoActiveNodeError) as excinfo:
        router.route(request(sim, "Write"), key=0)
    assert excinfo.value.shard_id == 0
    assert excinfo.value.kind == "write"
    with pytest.raises(NoActiveNodeError) as excinfo:
        router.route(request(sim, "Read"), key=0)
    assert excinfo.value.kind == "read"


def test_decision_counts_grow_only_when_armed(sim):
    shard = make_shard(sim)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    assert set(router.decision_counts()) == {
        "routed_writes", "routed_reads", "replica_reads",
        "stale_read_bounces", "replica_fallbacks"}
    router.arm_self_healing(RouterPolicy(), lambda r, s: None)
    counts = router.decision_counts()
    assert {"breaker_trips", "breaker_skips", "hedged_reads",
            "retries", "shed_no_active",
            "stale_reads_served"} <= set(counts)


# ----------------------------------------------------------------------
# CircuitBreaker state machine
# ----------------------------------------------------------------------
def test_breaker_opens_at_the_failure_threshold():
    breaker = CircuitBreaker(threshold=3, reset_s=0.5)
    assert breaker.record_failure(0.0) is False
    assert breaker.record_failure(0.0) is False
    assert breaker.record_failure(0.0) is True  # the trip
    assert breaker.state == BREAKER_OPEN
    assert breaker.allows(0.4) is False  # still inside reset_s


def test_breaker_half_open_probe_then_close():
    breaker = CircuitBreaker(threshold=1, reset_s=0.5)
    breaker.record_failure(0.0)
    assert breaker.allows(0.5) is True  # the probe
    assert breaker.state == BREAKER_HALF_OPEN
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED


def test_breaker_half_open_failure_reopens_and_restarts_the_clock():
    breaker = CircuitBreaker(threshold=1, reset_s=0.5)
    breaker.record_failure(0.0)
    breaker.allows(0.5)  # -> half-open
    assert breaker.record_failure(0.6) is True  # probe failed
    assert breaker.state == BREAKER_OPEN
    assert breaker.allows(1.0) is False  # reset clock restarted at 0.6
    assert breaker.allows(1.1) is True


def test_success_resets_the_consecutive_failure_count():
    breaker = CircuitBreaker(threshold=3, reset_s=0.5)
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    breaker.record_success()
    assert breaker.record_failure(0.0) is False  # count restarted
    assert breaker.state == BREAKER_CLOSED


# ----------------------------------------------------------------------
# Armed routing: retry, shed, breaker gating, hedged reads
# ----------------------------------------------------------------------
def arm(router, sheds, **overrides):
    policy = RouterPolicy(**overrides)
    router.arm_self_healing(policy,
                            lambda req, shard_id: sheds.append(
                                (req, shard_id)))
    return policy


def test_armed_router_retries_until_the_shard_recovers(sim):
    shard = make_shard(sim, start_parked=True)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    sheds = []
    arm(router, sheds, retry_backoff_s=0.05, retry_limit=3)
    shard.primary.crash()
    write = request(sim, "Write")
    assert router.route(write, key=0) is None  # deferred, not raised
    assert router.retries == 1
    # The primary comes back before the first retry fires.
    sim.schedule_at(0.01,
                    lambda: shard.primary._transition(NodeState.ACTIVE))
    sim.run(until=1.0)
    assert shard.primary.server.submitted == 1
    assert sheds == []
    assert router.shed_no_active == 0


def test_armed_router_sheds_after_the_retry_budget(sim):
    shard = make_shard(sim, start_parked=True)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    sheds = []
    arm(router, sheds, retry_backoff_s=0.05, retry_limit=3,
        breaker_failure_threshold=3)
    shard.primary.crash()
    write = request(sim, "Write")
    assert router.route(write, key=0) is None
    sim.run(until=5.0)
    # Backoff doubles per attempt: 0.05 + 0.1 + 0.2, then the shed.
    assert router.retries == 3
    assert sheds == [(write, 0)]
    assert router.shed_no_active == 1
    # The four consecutive write failures also tripped the primary's
    # breaker (threshold 3).
    assert router.breaker_trips == 1
    assert router._breakers[0].state == BREAKER_OPEN


def test_flush_pending_retries_closes_the_books(sim):
    shard = make_shard(sim, start_parked=True)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    sheds = []
    arm(router, sheds, retry_backoff_s=0.05, retry_limit=3)
    shard.primary.crash()
    write = request(sim, "Write")
    router.route(write, key=0)
    # End of run arrives before the retry fires: the request must be
    # shed, never silently censored.
    assert router.flush_pending_retries() == 1
    assert sheds == [(write, 0)]
    assert router.shed_no_active == 1
    assert router.flush_pending_retries() == 0  # idempotent


def test_open_primary_breaker_serves_stale_reads_degraded(sim):
    shard = make_shard(sim, lag_s=0.05)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    arm(router, [], breaker_failure_threshold=1, breaker_reset_s=10.0)
    router.route(request(sim, "Write"), key=0)
    # Trip the primary's breaker while it stays nominally active.
    router._breakers[0].record_failure(sim.now)
    target = router.route(request(sim, "Read"), key=0)
    # Inside the apply lag the read is stale, but the bounce target is
    # breaker-gated: a stale answer on the replica beats no answer.
    assert target is shard.replicas[0]
    assert router.breaker_skips == 1
    assert router.stale_reads_served == 1
    assert router.stale_read_bounces == 0


def test_hedged_reads_take_the_shorter_queue(sim):
    shard = make_shard(sim, replicas=2, lag_s=0.0)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    arm(router, [], hedged_reads=True)
    # Pile queued work onto replica 1 (the round-robin's first pick).
    for _ in range(4):
        shard.replicas[0].server.submit(request(sim, "Read"))
    target = router.route(request(sim, "Read"), key=0)
    assert target is shard.replicas[1]
    assert router.hedged_read_switches == 1


def test_hedging_ties_keep_the_round_robin_pick_and_balance_load(sim):
    shard = make_shard(sim, replicas=2, lag_s=0.0)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    arm(router, [], hedged_reads=True)
    # Empty queues tie: the round-robin pick stands, no switch.
    assert router.route(request(sim, "Read"), key=0) \
        is shard.replicas[0]
    assert router.hedged_read_switches == 0
    # From here queues diverge and the hedge keeps them level.
    served = [router.route(request(sim, "Read"), key=0).node_id
              for _ in range(5)]
    assert sorted(served) == [1, 1, 2, 2, 2]
    queues = [r.server.total_queue_length() for r in shard.replicas]
    assert abs(queues[0] - queues[1]) <= 1
