"""ClusterRouter: sharding, the read rotation, per-key freshness and
stale-read bounces, and the one path for a shard with no node to serve
a request: retry with backoff, then shed."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import Request
from repro.core.workload import Workload
from repro.db.server import DatabaseServer, ServerConfig
from repro.fleet import router as router_module
from repro.fleet.node import Node, NodeState, PRIMARY, REPLICA
from repro.fleet.router import ClusterRouter, ShardState, read_only_types
from repro.metrics.latency import LatencyRecorder
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


def advance(sim, to_s):
    sim.schedule_at(to_s, lambda: None)
    sim.run(until=to_s)


@pytest.fixture
def group_of_one(monkeypatch):
    """Every commit forces the log at once."""
    monkeypatch.setattr(router_module, "GROUP_COMMIT_SIZE", 1)


def test_writes_go_to_primary_and_commit_their_key(sim):
    shard = make_shard(sim)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    target = router.route(request(sim, "Write"), key=6)
    assert target is shard.primary
    assert shard.replication.key_lsn == {}  # routed, not yet committed
    sim.run()
    assert shard.replication.key_lsn == {6: 2}
    assert router.decision_counts()["routed_writes"] == 1


def test_fresh_read_served_by_replica(sim):
    shard = make_shard(sim, lag_s=0.05)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    # No write ever happened: the replica cannot be stale.  The
    # rotation starts at the primary, so the second read is the
    # replica's.
    assert router.route(request(sim, "Read"), key=0) is shard.primary
    assert router.route(request(sim, "Read"), key=0) is shard.replicas[0]
    assert router.replica_reads == 1
    assert router.stale_read_bounces == 0


def test_stale_read_bounces_to_primary(sim, group_of_one):
    shard = make_shard(sim, lag_s=0.05)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    router.route(request(sim, "Write"), key=0)
    advance(sim, 0.01)  # committed and forced, inside the 50 ms lag
    assert router.route(request(sim, "Read"), key=0) is shard.primary
    # The replica's turn: it has not applied key 0's commit, so the
    # read passes over it to the next fresh node.
    assert router.route(request(sim, "Read"), key=0) is shard.primary
    assert router.stale_read_bounces == 1
    advance(sim, 0.1)  # beyond the lag: the replica caught up
    assert router.route(request(sim, "Read"), key=0) \
        is shard.replicas[0]
    assert router.replica_reads == 1


def test_freshness_is_per_key(sim, group_of_one):
    """A write makes only its own key stale on the replicas: a read of
    any other key is served there at once."""
    shard = make_shard(sim, lag_s=0.05)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    router.route(request(sim, "Write"), key=0)
    advance(sim, 0.01)
    assert router.route(request(sim, "Read"), key=1) is shard.primary
    assert router.route(request(sim, "Read"), key=1) is shard.replicas[0]
    assert router.stale_read_bounces == 0


def test_an_unforced_commit_is_stale_on_every_replica(sim):
    """Group commit: a commit still in the buffer has shipped nowhere."""
    shard = make_shard(sim, lag_s=0.0)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    router.route(request(sim, "Write"), key=3)
    advance(sim, 1.0)
    replica = shard.replicas[0]
    assert shard.replication.buffered_commits == 1
    assert not shard.fresh(replica, 3, sim.now)
    assert shard.fresh(shard.primary, 3, sim.now)
    assert shard.fresh(replica, 4, sim.now)


def test_reads_rotate_over_the_primary_too(sim):
    """With fresh replicas the primary still takes its turn, so no
    replica carries more than its share of the reads."""
    shard = make_shard(sim, replicas=2, lag_s=0.0)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    served = [router.route(request(sim, "Read"), key=0).node_id
              for _ in range(6)]
    assert served == [0, 1, 2, 0, 1, 2]
    assert router.replica_reads == 4


def test_read_falls_back_to_primary_without_active_replicas(sim):
    shard = make_shard(sim, start_parked=True)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    for _ in range(3):
        assert router.route(request(sim, "Read"), key=0) is shard.primary
    assert router.replica_reads == 0


def test_round_robin_skips_inactive_replicas(sim):
    shard = make_shard(sim, replicas=3, lag_s=0.0)
    shard.replicas[1]._transition(NodeState.PARKED)
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    served = [router.route(request(sim, "Read"), key=0).node_id
              for _ in range(6)]
    assert served == [0, 1, 3, 0, 1, 3]  # node 2 is parked


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
    router.route(read, key=0)  # the rotation starts at the primary
    sim.run()
    assert write.finish_time is not None
    assert read.finish_time is not None
    assert shard.primary.server.submitted == 2
    assert shard.replicas[0].server.submitted == 0


def test_router_needs_a_shard(sim):
    with pytest.raises(ValueError):
        ClusterRouter(sim, [], frozenset())


def test_decision_counts_report_every_counter(sim):
    router = ClusterRouter(sim, [make_shard(sim)], frozenset({"Read"}))
    assert list(router.decision_counts()) == [
        "routed_writes", "routed_reads", "replica_reads",
        "stale_read_bounces", "retries", "shed_no_active",
        "stale_reads_served"]


# ----------------------------------------------------------------------
# A shard with no node to serve: retry, then shed
# ----------------------------------------------------------------------
def shedding_router(sim, shard):
    """A router whose sheds land in the returned list, as a fleet cell's
    land in its recorder: each with the site the router stamped."""
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    sheds = []
    router.on_shed = lambda req: sheds.append((req, req.site))
    return router, sheds


def promote(shard, node):
    """FailoverManager's promotion, without its clock."""
    shard.replication.promote_to(node, node.sim.now)
    corpse = shard.primary
    node.promote()
    shard.replicas.remove(node)
    corpse.role = REPLICA
    shard.replicas.append(corpse)
    shard.primary = node


def test_a_crashed_shard_retries_then_sheds_and_never_raises(sim):
    """Every router takes the one path, with no chaos plan in sight:
    a write and a read to a shard with nothing active each retry three
    times and then shed."""
    shard = make_shard(sim, start_parked=True)
    router, sheds = shedding_router(sim, shard)
    shard.primary.crash()
    write, read = request(sim, "Write"), request(sim, "Read")
    assert router.route(write, key=0) is None
    assert router.route(read, key=0) is None
    sim.run(until=5.0)
    assert router.retries == 6
    assert router.shed_no_active == 2
    assert sheds == [(write, 0), (read, 0)]


def test_a_crashed_primary_retries_until_failover_promotes(sim):
    shard = make_shard(sim)
    router, sheds = shedding_router(sim, shard)
    shard.primary.crash()
    write = request(sim, "Write")
    assert router.route(write, key=0) is None  # deferred, not raised
    assert router.retries == 1
    # Failover promotes the replica before the first retry fires.
    replica = shard.replicas[0]
    sim.schedule_at(0.01, lambda: promote(shard, replica))
    sim.run(until=1.0)
    assert shard.primary is replica
    assert replica.server.submitted == 1
    assert sheds == []
    assert router.shed_no_active == 0


def test_a_crashed_shard_sheds_after_the_retry_budget(sim):
    shard = make_shard(sim, start_parked=True)
    router, sheds = shedding_router(sim, shard)
    shard.primary.crash()
    write = request(sim, "Write")
    assert router.route(write, key=0) is None
    sim.run(until=5.0)
    # Backoff doubles per attempt: 0.05 + 0.1 + 0.2, then the shed.
    assert router.retries == 3
    assert sheds == [(write, 0)]
    assert router.shed_no_active == 1


def test_flush_pending_retries_closes_the_books(sim):
    shard = make_shard(sim, start_parked=True)
    router, sheds = shedding_router(sim, shard)
    shard.primary.crash()
    write = request(sim, "Write")
    router.route(write, key=0)
    # End of run arrives before the retry fires: the request must be
    # shed, never silently censored.
    assert router.flush_pending_retries() == 1
    assert sheds == [(write, 0)]
    assert router.shed_no_active == 1
    assert router.flush_pending_retries() == 0  # idempotent


def test_a_crashed_primary_serves_stale_reads_degraded(sim):
    """With the primary crashed and every active replica stale for the
    key, the read is served degraded on a replica: a stale answer
    beats no answer."""
    shard = make_shard(sim, lag_s=0.05)
    router, sheds = shedding_router(sim, shard)
    router.route(request(sim, "Write"), key=0)
    sim.run()  # committed; still buffered, so shipped nowhere
    shard.primary.crash()
    shard.replication.on_primary_crash()
    target = router.route(request(sim, "Read"), key=0)
    assert target is shard.replicas[0]
    assert router.stale_reads_served == 1
    assert router.stale_read_bounces == 0
    assert router.retries == 0 and sheds == []


def test_routed_shed_and_lost_requests_land_in_their_shards_books(sim):
    """The router stamps each request's shard as its site, and every
    recorder hook logs the site the request carries: a request served
    on shard 0, one shed by crashed shard 1 and one lost in shard 2's
    crash each count in their own shard's row of the per-site books."""
    shards = []
    for shard_id in range(3):
        server = DatabaseServer(sim, ServerConfig(workers=1,
                                                  request_handlers=1))
        primary = Node(sim, shard_id, shard_id, PRIMARY, server,
                       parked_floor_watts=4.0)
        shards.append(ShardState(shard_id, primary, []))
    router = ClusterRouter(sim, shards, frozenset({"Read"}))
    recorder = LatencyRecorder()
    recorder.set_window(0.0, 10.0)
    for shard in shards:
        shard.primary.server.add_completion_listener(recorder.on_completion)
    router.on_shed = recorder.on_rejection
    shards[1].primary.crash()
    served, shed, lost = (request(sim) for _ in range(3))
    assert router.route(served, key=3) is shards[0].primary
    assert router.route(shed, key=4) is None
    assert router.route(lost, key=5) is shards[2].primary
    assert [r.site for r in (served, shed, lost)] == [0, 1, 2]
    for corpse in shards[2].primary.crash():
        recorder.on_lost(corpse)
    sim.run(until=5.0)
    books = recorder.books().sites
    assert {site: (stats.offered, stats.completed, stats.rejected,
                   stats.lost) for site, stats in books.items()} == {
        0: (1, 1, 0, 0), 1: (1, 0, 1, 0), 2: (1, 0, 0, 1)}


# ----------------------------------------------------------------------
# The freshness property: router and replication together
# ----------------------------------------------------------------------
#: (op, replica index or key, clock step); repeats weight the draw.
FLEET_OPS = st.lists(st.tuples(
    st.sampled_from(("write",) * 4 + ("read",) * 5 + ("advance",) * 3
                    + ("partition", "heal", "slow", "fast", "crash",
                       "promote")),
    st.integers(0, 3), st.sampled_from((0.001, 0.01, 0.04, 0.2))),
    min_size=20, max_size=80)


@given(group=st.integers(1, 3),
       lags=st.tuples(*[st.sampled_from((0.0, 0.02, 0.08))] * 2),
       ops=FLEET_OPS)
@settings(max_examples=150, deadline=None)
def test_fresh_replica_reads_never_see_a_stale_key(group, lags, ops):
    """Random writes, reads, clock steps, partitions, heals, slow-
    follower windows, primary crashes and promotions through the
    router: every read a replica serves fresh finds the key's last
    commit applied there, and no replica's apply position falls between
    promotions."""
    sim = Simulator()
    primary = make_node(sim, 0, role=PRIMARY)
    replicas = [make_node(sim, 1 + i, lag_s=lag)
                for i, lag in enumerate(lags)]
    shard = ShardState(0, primary, replicas)
    replication = shard.replication
    router = ClusterRouter(sim, [shard], frozenset({"Read"}))
    pick = router._pick_read_target
    fresh_reads = []

    def checked_pick(shard, key, now_s):
        served_fresh = router.replica_reads
        node = pick(shard, key, now_s)
        if router.replica_reads > served_fresh:
            fresh_reads.append(node)
            assert replication.applied_lsn(node, now_s) \
                >= replication.key_lsn.get(key, 0)
        return node

    router._pick_read_target = checked_pick
    slowed = {node.node_id: 0 for node in replicas}
    seen = {}  # node id -> applied LSN last observed since a promotion
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(router_module, "GROUP_COMMIT_SIZE", group)
        for op, arg, step_s in ops:
            node = shard.replicas[arg % len(shard.replicas)]
            alive = shard.primary.state is NodeState.ACTIVE
            if op in ("write", "read"):
                router.route(request(sim, op.capitalize()), key=arg)
            elif op == "advance":
                advance(sim, sim.now + step_s)
            elif op == "partition":
                replication.freeze_replica(node)
            elif op == "heal":
                replication.heal_replica(node)
            elif op == "slow":
                replication.add_lag(node, 0.25)
                slowed[node.node_id] = slowed.get(node.node_id, 0) + 1
            elif op == "fast" and slowed.get(node.node_id):
                replication.add_lag(node, -0.25)
                slowed[node.node_id] -= 1
            elif op == "crash" and alive:
                shard.primary.crash()
                replication.on_primary_crash()
            elif op == "promote" and not alive \
                    and node.state is NodeState.ACTIVE:
                promote(shard, node)
                seen.clear()
            for other in shard.replicas:
                applied = replication.applied_lsn(other, sim.now)
                assert applied >= seen.get(other.node_id, 0)
                seen[other.node_id] = applied
    assert len(fresh_reads) == router.replica_reads
