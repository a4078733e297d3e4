"""ElasticController: thresholds, hysteresis, and queue migration."""

import random

import pytest

from repro.core.request import Request
from repro.core.workload import Workload
from repro.db.server import DatabaseServer, ServerConfig
from repro.fleet import controller as elastic
from repro.fleet.config import FleetConfig
from repro.fleet.controller import ElasticController
from repro.fleet.node import Fleet, Node, NodeState, PRIMARY, REPLICA
from repro.fleet.router import ClusterRouter, ShardState
from repro.sim.engine import Simulator

WORKLOAD = Workload("w", 10.0)

CONFIG = FleetConfig(shards=1, replicas_per_shard=2, node_workers=1)

PER_NODE_PEAK_TPS = 100.0


@pytest.fixture(autouse=True)
def fast_controller(monkeypatch):
    """The controller's timings at test scale (the thresholds keep
    their values)."""
    for name, value in dict(
            CONTROLLER_INTERVAL_S=0.1, CONTROLLER_WINDOW_TICKS=2,
            CONTROLLER_COOLDOWN_TICKS=1, BOOT_LATENCY_S=(0.2, 0.2),
            DRAIN_GRACE_S=0.1).items():
        monkeypatch.setattr(elastic, name, value)


def build(sim, parked_replicas=0):
    nodes = []
    for node_id in range(3):
        role = PRIMARY if node_id == 0 else REPLICA
        server = DatabaseServer(sim, ServerConfig(workers=1,
                                                  request_handlers=1))
        nodes.append(Node(sim, node_id, 0, role, server,
                          parked_floor_watts=4.0,
                          start_parked=(role == REPLICA
                                        and node_id > 2 - parked_replicas)))
    fleet = Fleet(sim, nodes)
    shard = ShardState(0, nodes[0], nodes[1:])
    router = ClusterRouter(sim, [shard], frozenset())
    controller = ElasticController(sim, fleet, router, CONFIG,
                                   PER_NODE_PEAK_TPS, random.Random(0))
    return fleet, shard, router, controller


def drive(sim, router, rate_tps, until, work=1e-6):
    """Offer ``rate_tps`` writes/s to the router until ``until``."""
    interval = 1.0 / rate_tps

    def arrival():
        router.route(Request(WORKLOAD, "Write", sim.now, work), key=0)
        if sim.now + interval < until:
            sim.schedule(interval, arrival)

    sim.schedule(interval, arrival)


def advance(sim, until):
    sim.schedule_at(until, lambda: None)
    sim.run(until=until)


def test_scale_out_under_load(sim):
    fleet, shard, router, controller = build(sim, parked_replicas=2)
    assert fleet.active_count() == 1
    controller.start()
    # 200 tps against one active node of peak 100: utilization 2.0.
    drive(sim, router, 200.0, until=2.0)
    advance(sim, 2.0)
    controller.stop()
    assert controller.actions["scale_out"] >= 1
    assert fleet.active_count() >= 2
    assert sum(n.boots for n in fleet.nodes) \
        == controller.actions["scale_out"]


def test_scale_in_when_idle(sim):
    fleet, shard, router, controller = build(sim)
    assert fleet.active_count() == 3
    controller.start()
    advance(sim, 2.0)  # no load at all
    controller.stop()
    assert controller.actions["scale_in"] == 2
    # Replicas parked; the primary never is.
    assert fleet.active_count() == 1
    assert fleet.nodes[0].state is NodeState.ACTIVE


def test_cooldown_paces_consecutive_actions(sim):
    fleet, shard, router, controller = build(sim)
    controller.start()
    # Window fills at the 0.2 s tick -> first scale-in there.  The
    # cooldown (1 tick) blanks the 0.3 s tick, so the second scale-in
    # cannot land before 0.4 s.
    advance(sim, 0.35)
    assert controller.actions["scale_in"] == 1
    advance(sim, 0.45)
    controller.stop()
    assert controller.actions["scale_in"] == 2


def test_moderate_load_is_hysteresis_stable(sim):
    fleet, shard, router, controller = build(sim)
    controller.start()
    # 120 tps over 3 active nodes: utilization 0.4, inside the band.
    drive(sim, router, 120.0, until=2.0)
    advance(sim, 2.0)
    controller.stop()
    assert controller.actions["scale_in"] == 0
    assert controller.actions["scale_out"] == 0


def test_migration_moves_queued_requests_and_credit():
    sim = Simulator(sanitize=True)  # audit fleet books at migration
    fleet, shard, router, controller = build(sim)
    victim = shard.replicas[-1]
    # Fill the victim: one executing (long) plus four queued requests.
    requests = [Request(WORKLOAD, "Write", sim.now, w)
                for w in [2.8] + [2.8e-3] * 4]
    for request in requests:
        victim.server.submit(request)
    sim.run(until=0.01)
    assert victim.server.total_queue_length() == 4
    before = sum(n.server.submitted for n in fleet.nodes)

    victim.begin_drain(controller._migrate_off, grace_s=0.1, poll_s=0.05)

    assert controller.actions["migrations"] == 1
    assert controller.actions["migrated_requests"] == 4
    assert victim.server.total_queue_length() == 0
    # Credit moved with the requests: fleet-scope sum unchanged, books
    # balanced per node (sanitize_accounting ran inside _migrate_off).
    assert sum(n.server.submitted for n in fleet.nodes) == before
    assert victim.server.submitted == 1  # the in-flight long request
    fleet.sanitize_accounting()
    # Everything completes: nothing lost, nothing double-run.
    sim.run(until=10.0)
    advance(sim, 10.0)
    assert sum(w.completed for n in fleet.nodes
               for w in n.server.workers) == 5
    assert all(r.finish_time is not None for r in requests)
    fleet.sanitize_accounting()


def test_migration_with_empty_queues_is_a_noop(sim):
    fleet, shard, router, controller = build(sim)
    victim = shard.replicas[0]
    victim.begin_drain(controller._migrate_off, grace_s=0.1, poll_s=0.05)
    assert controller.actions["migrations"] == 0
    advance(sim, 1.0)
    assert victim.state is NodeState.PARKED


def test_in_motion_shard_takes_no_further_action(sim):
    fleet, shard, router, controller = build(sim)
    shard.replicas[0]._transition(NodeState.DRAINING)
    controller.start()
    advance(sim, 1.0)
    controller.stop()
    # The draining replica never parks (no drain poll was scheduled),
    # so the shard stays in motion and the controller must hold off.
    assert controller.actions["scale_in"] == 0
    assert controller.actions["scale_out"] == 0


def test_crashed_primary_pins_the_last_active_replica(sim):
    """Regression: with the primary crashed, the shard's last active
    replica is its only serving node and only promotion candidate ---
    idle or not, scale-in must never park it."""
    fleet, shard, router, controller = build(sim)
    shard.primary.crash()
    controller.start()
    advance(sim, 2.0)  # no load: a healthy shard would park everything
    controller.stop()
    assert controller.actions["scale_in"] == 1
    survivors = [r for r in shard.replicas
                 if r.state is NodeState.ACTIVE]
    assert len(survivors) == 1


def test_min_active_replicas_floor(sim, monkeypatch):
    monkeypatch.setattr(elastic, "CONTROLLER_COOLDOWN_TICKS", 0)
    fleet, shard, router, controller = build(sim)
    controller.config = FleetConfig(shards=1, replicas_per_shard=2,
                                    node_workers=1, min_active_replicas=1)
    controller.start()
    advance(sim, 2.0)
    controller.stop()
    assert controller.actions["scale_in"] == 1  # stopped at the floor
    assert fleet.active_count() == 2
