"""Failover machinery units: detection, election, replay, availability.

Exercises :mod:`repro.fleet.failover` and the :class:`ShardReplication`
WAL model from :mod:`repro.fleet.chaos` in isolation --- small fleets,
hand-scheduled crashes, exact virtual-clock assertions.  The end-to-end
chaos cells live in ``test_fleet_chaos.py``.
"""

import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.server import DatabaseServer, ServerConfig
from repro.fleet import chaos, failover
from repro.fleet.chaos import ShardReplication
from repro.fleet.failover import AvailabilityTracker, FailoverManager
from repro.fleet.node import Fleet, Node, NodeState, PRIMARY, REPLICA
from repro.fleet.router import ShardState


@pytest.fixture(autouse=True)
def fixed_boot_latency(monkeypatch):
    """A warm spare boots in exactly 0.3 s, so the timeline is exact."""
    monkeypatch.setattr(failover, "BOOT_LATENCY_S", (0.3, 0.3))


@pytest.fixture(autouse=True)
def group_of_one(monkeypatch):
    """Every commit forces the log, so every write is durable at once."""
    monkeypatch.setattr(chaos, "GROUP_COMMIT_SIZE", 1)


def _node(sim, node_id, role, lag_s=0.0, parked=False):
    server = DatabaseServer(sim, ServerConfig(workers=1,
                                              request_handlers=1))
    return Node(sim, node_id, 0, role, server, parked_floor_watts=4.0,
                replication_lag_s=lag_s, start_parked=parked)


def build(sim, lags=(0.05, 1.0), parked=0):
    """One shard: primary node 0 plus one replica per lag entry (the
    last ``parked`` of them starting parked)."""
    primary = _node(sim, 0, PRIMARY)
    replicas = [
        _node(sim, i + 1, REPLICA, lag_s=lag,
              parked=(i >= len(lags) - parked))
        for i, lag in enumerate(lags)]
    fleet = Fleet(sim, [primary] + replicas)
    shard = ShardState(0, primary, replicas)
    replication = ShardReplication(sim, 0)
    tracker = AvailabilityTracker(sim, [0])
    manager = FailoverManager(sim, fleet, [shard], {0: replication},
                              tracker, random.Random(42))
    return shard, replication, tracker, manager


def commit_writes(sim, replication, count, spacing_s=0.1,
                  start_s=0.01):
    for i in range(count):
        sim.schedule_at(start_s + spacing_s * i,
                        replication.on_write_committed)


def crash_primary(sim, shard, replication, tracker, at_s):
    def fire():
        shard.primary.crash()
        replication.on_primary_crash()
        tracker.mark_down(shard.shard_id)
    sim.schedule_at(at_s, fire)


def run(sim, until):
    sim.schedule_at(until, lambda: None)
    sim.run(until=until)


# ----------------------------------------------------------------------
# AvailabilityTracker
# ----------------------------------------------------------------------
def test_tracker_closes_windows(sim):
    tracker = AvailabilityTracker(sim, [0, 1])
    sim.schedule_at(1.0, lambda: tracker.mark_down(0))
    sim.schedule_at(3.0, lambda: tracker.mark_up(0))
    run(sim, 4.0)
    assert tracker.windows == [(0, 1.0, 3.0)]
    # Shard 1 never went down; shard 0 was down 2 s of the 4 s window.
    assert tracker.availability(0.0, 4.0) == {0: 0.5, 1: 1.0}


def test_tracker_mark_down_is_idempotent(sim):
    tracker = AvailabilityTracker(sim, [0])
    sim.schedule_at(1.0, lambda: tracker.mark_down(0))
    sim.schedule_at(2.0, lambda: tracker.mark_down(0))  # still 1.0
    sim.schedule_at(3.0, lambda: tracker.mark_up(0))
    run(sim, 3.0)
    assert tracker.windows == [(0, 1.0, 3.0)]
    # mark_up with no open outage is a no-op too.
    tracker.mark_up(0)
    assert tracker.windows == [(0, 1.0, 3.0)]


def test_tracker_clips_open_outage_at_end(sim):
    tracker = AvailabilityTracker(sim, [0])
    sim.schedule_at(6.0, lambda: tracker.mark_down(0))
    run(sim, 8.0)
    assert tracker.outage_windows(8.0) == [(0, 6.0, 8.0)]
    assert tracker.availability(0.0, 8.0) == {0: 0.75}
    # Measurement windows that end before the outage see full uptime.
    assert tracker.availability(0.0, 6.0) == {0: 1.0}


def test_tracker_overlap_is_clamped_to_the_window(sim):
    tracker = AvailabilityTracker(sim, [0])
    sim.schedule_at(1.0, lambda: tracker.mark_down(0))
    sim.schedule_at(5.0, lambda: tracker.mark_up(0))
    run(sim, 5.0)
    # Outage [1, 5) against measurement [2, 4): fully down.
    assert tracker.availability(2.0, 4.0) == {0: 0.0}
    assert tracker.availability(4.0, 4.0) == {0: 1.0}  # empty window


# ----------------------------------------------------------------------
# ShardReplication (the WAL model)
# ----------------------------------------------------------------------
def test_replica_applies_forced_prefix_after_lag(sim):
    replication = ShardReplication(sim, 0)
    commit_writes(sim, replication, 3, spacing_s=0.1, start_s=0.0)
    run(sim, 1.0)
    assert len(replication.force_times) == 3
    top = replication.force_times[-1][1]
    # Zero lag sees everything immediately; 0.15 s lag at t=0.2 has
    # only the first force (t=0.0) applied.
    assert replication.applied_lsn(1, 0.0, 0.25) == top
    assert replication.applied_lsn(1, 0.15, 0.2) \
        == replication.force_times[0][1]
    assert replication.applied_lsn(1, 5.0, 0.2) == 0


def test_crash_loses_exactly_the_buffered_tail(sim, monkeypatch):
    # Group commit forces every 4 COMMITs: the first four writes are
    # durable, the fifth's sits in the buffer when the primary dies.
    monkeypatch.setattr(chaos, "GROUP_COMMIT_SIZE", 4)
    replication = ShardReplication(sim, 0)
    commit_writes(sim, replication, 5, spacing_s=0.01, start_s=0.0)
    run(sim, 1.0)
    assert len(replication.buffered_commits) == 1
    lost = replication.on_primary_crash()
    assert lost == 1
    assert replication.lost_commits == 1
    assert replication.crashed_at_s == sim.now


def test_nothing_ships_after_the_crash(sim):
    replication = ShardReplication(sim, 0)
    commit_writes(sim, replication, 2, spacing_s=0.1, start_s=0.0)
    run(sim, 0.15)
    replication.on_primary_crash()  # at 0.15, after the first force
    run(sim, 5.0)
    # A zero-lag replica still only ever sees pre-crash forces.
    pre_crash = [lsn for t, lsn in replication.force_times if t <= 0.15]
    assert replication.applied_lsn(1, 0.0, 5.0) == pre_crash[-1]


def test_partition_freezes_the_apply_position(sim):
    replication = ShardReplication(sim, 0)
    node = _node(sim, 1, REPLICA, lag_s=0.0)
    commit_writes(sim, replication, 1, start_s=0.0)
    run(sim, 0.05)
    replication.freeze_replica(node)
    frozen_at = replication.applied_lsn(1, 0.0, sim.now)
    commit_writes(sim, replication, 2, spacing_s=0.1, start_s=0.1)
    run(sim, 1.0)
    assert replication.is_frozen(1)
    assert replication.applied_lsn(1, 0.0, sim.now) == frozen_at
    replication.heal_replica(node)
    assert replication.applied_lsn(1, 0.0, sim.now) \
        == replication.force_times[-1][1]


def test_promotion_trims_unshipped_commits_and_replays(sim):
    replication = ShardReplication(sim, 0)
    node = _node(sim, 1, REPLICA, lag_s=0.15)
    commit_writes(sim, replication, 3, spacing_s=0.1, start_s=0.0)
    run(sim, 0.25)
    replication.on_primary_crash()  # forces at 0.0, 0.1, 0.2 all durable
    # At 0.25 a 0.15 s-lag replica has applied the 0.0 and 0.1 forces;
    # the t=0.2 durable commit was never shipped.
    records = replication.promote_to(node, 0.15, sim.now)
    assert replication.lost_commits == 1
    assert records == 4  # two txns x (UPDATE + COMMIT) survive the trim
    assert replication.durable_commits == [2, 4]
    assert replication.crashed_at_s is None  # write path alive again


#: (op, replica index, clock step); repeats weight the draw.
WAL_OPS = st.lists(st.tuples(
    st.sampled_from(("write",) * 5 + ("advance",) * 3
                    + ("crash", "freeze", "heal", "promote", "promote")),
    st.integers(0, 1), st.sampled_from((0.0, 0.01, 0.04, 0.2))),
    min_size=30, max_size=120)


@given(group=st.integers(1, 8),
       lags=st.tuples(*[st.sampled_from((0.0, 0.05, 0.3))] * 2),
       ops=WAL_OPS)
@settings(max_examples=200, deadline=None)
def test_wal_model_invariants(group, lags, ops):
    """Random interleavings of writes, clock advances, crashes,
    partitions and promotions, in the order the fleet can produce them
    (writes and crashes only while the primary is alive, promotion only
    after a crash): no commit is unaccounted for, a crash loses at most
    a group's tail, an unpartitioned replica's apply position only
    moves forward between promotions and never past the durable log,
    and a promotion replays two records per durable commit it keeps."""
    with mock.patch.object(chaos, "GROUP_COMMIT_SIZE", group):
        clock = SimpleNamespace(now=0.0)
        replication = ShardReplication(clock, 0)
        replicas = [SimpleNamespace(node_id=i + 1, replication_lag_s=lag)
                    for i, lag in enumerate(lags)]
        committed = 0
        seen = {}  # node id -> applied LSN last observed since a promotion
        for op, index, step_s in ops:
            alive = replication.crashed_at_s is None
            replica = replicas[index]
            if op == "write" and alive:
                replication.on_write_committed()
                committed += 1
            elif op == "advance":
                clock.now += step_s
            elif op == "crash" and alive:
                assert replication.on_primary_crash() <= group - 1
            elif op == "freeze":
                replication.freeze_replica(replica)
            elif op == "heal":
                replication.heal_replica(replica)
            elif op == "promote" and not alive:
                applied = replication.applied_lsn(
                    replica.node_id, replica.replication_lag_s, clock.now)
                above = sum(1 for lsn in replication.durable_commits
                            if lsn > applied)
                lost_before = replication.lost_commits
                records = replication.promote_to(
                    replica, replica.replication_lag_s, clock.now)
                assert replication.lost_commits - lost_before == above
                assert records == 2 * len(replication.durable_commits)
                seen.clear()
            durable = replication.durable_commits
            assert committed == len(durable) + replication.lost_commits \
                + len(replication.buffered_commits)
            last_durable = durable[-1] if durable else 0
            for node in replicas:
                if replication.is_frozen(node.node_id):
                    continue  # pinned where the partition found it
                applied = replication.applied_lsn(
                    node.node_id, node.replication_lag_s, clock.now)
                assert seen.get(node.node_id, 0) <= applied <= last_durable
                seen[node.node_id] = applied


# ----------------------------------------------------------------------
# FailoverManager
# ----------------------------------------------------------------------
def test_detection_waits_for_the_heartbeat_timeout(sim):
    shard, replication, tracker, manager = build(sim)
    crash_primary(sim, shard, replication, tracker, at_s=0.5)
    manager.start()
    run(sim, 2.0)
    manager.stop()
    detected = [t for t, _, event, _ in manager.timeline
                if event == "detected"]
    # Crash at 0.5, timeout 0.2: the first eligible tick is 0.70.
    assert detected == [pytest.approx(0.7)]


def test_most_caught_up_replica_wins_the_election(sim):
    shard, replication, tracker, manager = build(sim, lags=(0.05, 1.0))
    commit_writes(sim, replication, 5, spacing_s=0.1, start_s=0.01)
    crash_primary(sim, shard, replication, tracker, at_s=0.5)
    manager.start()
    run(sim, 2.0)
    manager.stop()
    # Node 1 (lag 0.05) has applied every force; node 2 (lag 1.0) none.
    assert shard.primary.node_id == 1
    assert shard.primary.role == PRIMARY
    assert shard.primary.replication_lag_s == 0.0
    assert manager.failovers == 1
    # 5 txns x (UPDATE + COMMIT), all durable and all shipped.
    assert manager.records_replayed == 10
    assert replication.lost_commits == 0
    # The corpse was demoted into the replica list.
    assert [r.node_id for r in shard.replicas] == [2, 0]
    assert shard.replicas[-1].role == REPLICA


def test_election_ties_break_to_the_lowest_node_id(sim):
    shard, replication, tracker, manager = build(sim, lags=(0.05, 0.05))
    commit_writes(sim, replication, 3, spacing_s=0.1, start_s=0.01)
    crash_primary(sim, shard, replication, tracker, at_s=0.5)
    manager.start()
    run(sim, 2.0)
    manager.stop()
    assert shard.primary.node_id == 1


def test_mttr_covers_crash_to_promotion(sim):
    shard, replication, tracker, manager = build(sim, lags=(0.05, 1.0))
    commit_writes(sim, replication, 5, spacing_s=0.1, start_s=0.01)
    crash_primary(sim, shard, replication, tracker, at_s=0.5)
    manager.start()
    run(sim, 2.0)
    manager.stop()
    # Detected at 0.70; replay = 0.05 fixed + 0.0002 x 10 records.
    expected_promotion = 0.7 + 0.05 + 0.0002 * 10
    promoted = [t for t, _, event, _ in manager.timeline
                if event == "promoted"]
    assert promoted == [pytest.approx(expected_promotion)]
    assert manager.mean_mttr_s == pytest.approx(expected_promotion - 0.5)
    # The tracker's outage closed at promotion.
    assert tracker.windows == [(0, 0.5, pytest.approx(expected_promotion))]


def test_no_active_replica_boots_the_warm_spare(sim):
    shard, replication, tracker, manager = build(sim, lags=(0.2,),
                                                 parked=1)
    assert shard.replicas[0].state is NodeState.PARKED
    crash_primary(sim, shard, replication, tracker, at_s=0.5)
    manager.start()
    run(sim, 3.0)
    manager.stop()
    events = [event for _, _, event, _ in manager.timeline]
    assert events == ["detected", "boot-spare", "replay", "promoted"]
    assert shard.primary.node_id == 1
    assert shard.primary.state is NodeState.ACTIVE
    # Detected 0.70 + boot 0.3 (pinned uniform) + replay 0.05 fixed.
    assert manager.mttr_samples == [pytest.approx(0.55)]


def test_no_replica_at_all_strands_the_shard(sim):
    shard, replication, tracker, manager = build(sim, lags=())
    crash_primary(sim, shard, replication, tracker, at_s=0.5)
    manager.start()
    run(sim, 2.0)
    manager.stop()
    events = [(event, node_id) for _, _, event, node_id
              in manager.timeline]
    assert events == [("detected", 0), ("stranded", -1)]
    assert manager.failovers == 0
    assert shard.primary.state is NodeState.CRASHED
    # The outage runs to end of run.
    assert tracker.availability(0.0, 2.0) == {0: 0.25}


def test_winner_dying_mid_replay_triggers_reelection(sim):
    shard, replication, tracker, manager = build(sim, lags=(0.05, 1.0))
    commit_writes(sim, replication, 5, spacing_s=0.1, start_s=0.01)
    crash_primary(sim, shard, replication, tracker, at_s=0.5)
    # Node 1 wins the 0.70 election then dies during its replay window.
    sim.schedule_at(0.71, lambda: shard.replicas[0].crash())
    manager.start()
    run(sim, 3.0)
    manager.stop()
    events = [event for _, _, event, _ in manager.timeline]
    assert "re-elect" in events
    assert shard.primary.node_id == 2  # the straggler was all we had
    assert manager.failovers == 1


def test_stop_cancels_the_heartbeat(sim):
    shard, replication, tracker, manager = build(sim)
    manager.start()
    run(sim, 0.3)
    manager.stop()
    crash_primary(sim, shard, replication, tracker, at_s=0.5)
    run(sim, 2.0)
    assert manager.timeline == []
