"""Node lifecycle, node-scope energy, and Fleet aggregation."""

import pytest

from repro.db.server import DatabaseServer, ServerConfig
from repro.fleet.node import Fleet, Node, NodeState, PRIMARY, REPLICA
from repro.sim.engine import Simulator

FLOOR_WATTS = 4.0


def make_node(sim, node_id=0, role=REPLICA, start_parked=False,
              workers=1, **kwargs):
    server = DatabaseServer(sim, ServerConfig(workers=workers,
                                              request_handlers=1))
    return Node(sim, node_id, 0, role, server,
                parked_floor_watts=FLOOR_WATTS,
                start_parked=start_parked, **kwargs)


def advance(sim, until):
    sim.schedule_at(until, lambda: None)
    sim.run(until=until)


def test_role_validation(sim):
    with pytest.raises(ValueError):
        make_node(sim, role="observer")
    with pytest.raises(ValueError):
        make_node(sim, role=PRIMARY, start_parked=True)


def test_initial_states(sim):
    assert make_node(sim).state is NodeState.ACTIVE
    assert make_node(sim, start_parked=True).state is NodeState.PARKED


def test_parked_power_is_the_floor(sim):
    node = make_node(sim, start_parked=True)
    assert node.power_watts() == FLOOR_WATTS
    active = make_node(sim, node_id=1)
    assert active.power_watts() == active.server.wall_power()
    assert active.power_watts() > 20 * FLOOR_WATTS  # static floor dominates


def test_parked_energy_integrates_the_floor(sim):
    node = make_node(sim, start_parked=True)
    advance(sim, 2.0)
    assert node.energy_joules_at(sim.now) == pytest.approx(2.0 * FLOOR_WATTS)


def test_unpark_sequences_warming_then_active(sim):
    node = make_node(sim, start_parked=True)
    seen = []
    node.unpark(1.5, on_active=lambda n: seen.append(sim.now))
    assert node.state is NodeState.WARMING
    assert node.boots == 1
    advance(sim, 1.0)
    assert node.state is NodeState.WARMING
    advance(sim, 2.0)
    assert node.state is NodeState.ACTIVE
    assert seen == [1.5]
    with pytest.raises(RuntimeError):
        node.unpark(1.0)  # only parked nodes boot


def test_warming_draws_powered_watts(sim):
    """Boot is paid for: a warming node draws server power, not floor."""
    node = make_node(sim, start_parked=True)
    node.unpark(2.0)
    assert node.power_watts() == node.server.wall_power()


def test_drain_parks_only_replicas(sim):
    primary = make_node(sim, role=PRIMARY)
    with pytest.raises(RuntimeError):
        primary.begin_drain(lambda n: None, 0.1, 0.05)


def test_drain_parks_after_grace(sim):
    node = make_node(sim)
    migrated = []
    node.begin_drain(migrated.append, grace_s=0.5, poll_s=0.05)
    assert node.state is NodeState.DRAINING
    assert migrated == [node]
    assert node.drains == 1
    advance(sim, 1.0)
    assert node.state is NodeState.PARKED
    with pytest.raises(RuntimeError):
        node.begin_drain(lambda n: None, 0.1, 0.05)  # already parked


def test_energy_continuity_across_drain_cycle(sim):
    """Regression: powered segments must rebase the server-energy
    baseline on *every* transition --- without it the active->draining
    hop double-counts everything since the last rebase."""
    node = make_node(sim)
    server_energy_at_park = {}

    def note(n, old, new):
        if new is NodeState.PARKED:
            server_energy_at_park["joules"] = n.server.wall_energy()

    node._on_transition = note
    advance(sim, 2.0)
    node.begin_drain(lambda n: None, grace_s=0.5, poll_s=0.05)
    advance(sim, 4.0)
    assert node.state is NodeState.PARKED
    park_time = 2.5
    expected = server_energy_at_park["joules"] \
        + FLOOR_WATTS * (4.0 - park_time)
    assert node.energy_joules_at(4.0) == pytest.approx(expected)


def test_fleet_counts_and_timeline(sim):
    nodes = [make_node(sim, node_id=0, role=PRIMARY),
             make_node(sim, node_id=1),
             make_node(sim, node_id=2, start_parked=True)]
    fleet = Fleet(sim, nodes)
    assert fleet.active_count() == 2
    assert fleet.powered_count() == 2
    assert fleet.node_timeline == [(0.0, 2)]
    nodes[2].unpark(1.0)
    advance(sim, 2.0)
    assert fleet.active_count() == 3
    # warming doesn't change the active count; only the boot does
    assert fleet.node_timeline == [(0.0, 2), (1.0, 3)]
    nodes[1].begin_drain(lambda n: None, 0.2, 0.05)
    advance(sim, 3.0)
    assert fleet.node_timeline == [(0.0, 2), (1.0, 3), (2.0, 2)]
    assert fleet.powered_count() == 2


def test_fleet_wall_power_sums_nodes(sim):
    nodes = [make_node(sim, node_id=0, role=PRIMARY),
             make_node(sim, node_id=1, start_parked=True)]
    fleet = Fleet(sim, nodes)
    assert fleet.wall_power() == pytest.approx(
        nodes[0].server.wall_power() + FLOOR_WATTS)
    advance(sim, 1.0)
    assert fleet.wall_energy() == pytest.approx(
        nodes[0].energy_joules_at(1.0) + FLOOR_WATTS)


def test_fleet_accounting_clean_on_idle_fleet(sim):
    fleet = Fleet(sim, [make_node(sim, node_id=0, role=PRIMARY),
                        make_node(sim, node_id=1)])
    fleet.sanitize_accounting()  # must not raise
    assert fleet.total_queue_length() == 0
