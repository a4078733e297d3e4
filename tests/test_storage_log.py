"""The shard WAL model: group commit policy, crash semantics, replay count.

:class:`repro.fleet.chaos.ShardReplication` keeps each shard's
write-ahead log as LSN counters; these pin the log behaviour the
failure machinery reads.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.chaos import ShardReplication
from repro.fleet.config import FleetConfig


def make_log(group_commit_size):
    return ShardReplication(SimpleNamespace(now=0.0), 0, group_commit_size)


def write(replication, count):
    for _ in range(count):
        replication.on_write_committed()


def promote_caught_up(replication):
    """Promote a zero-lag replica; returns the records its redo replays."""
    replica = SimpleNamespace(node_id=1, replication_lag_s=0.0)
    return replication.promote_to(replica, 0.0, replication.sim.now)


def test_records_get_monotonic_lsns():
    replication = make_log(group_commit_size=1)
    write(replication, 3)
    # Each write takes a row-image LSN, then its COMMIT's.
    assert replication.durable_commits == [2, 4, 6]
    assert replication.next_lsn == 7


def test_group_commit_forces_every_n_commits():
    replication = make_log(group_commit_size=3)
    write(replication, 6)
    # 6 commits with threshold 3 -> exactly 2 group forces, each right
    # after the COMMIT that filled its group.
    assert [lsn for _, lsn in replication.force_times] == [6, 12]
    assert replication.buffered_commits == []


def test_buffer_not_durable_until_force():
    replication = make_log(group_commit_size=100)
    write(replication, 99)
    assert replication.durable_commits == []
    assert len(replication.buffered_commits) == 99
    assert replication.applied_lsn(1, 0.0, 0.0) == 0  # nothing shipped
    write(replication, 1)  # the 100th COMMIT fills the group
    assert len(replication.durable_commits) == 100
    assert replication.buffered_commits == []


def test_crash_drops_buffered_tail():
    replication = make_log(group_commit_size=2)
    write(replication, 3)
    assert replication.on_primary_crash() == 1
    assert replication.durable_commits == [2, 4]
    assert replication.buffered_commits == []


def test_replay_applies_only_committed():
    """Only commits that reached the durable log are replayed: the
    write whose COMMIT was still buffered at the crash is not."""
    replication = make_log(group_commit_size=2)
    write(replication, 3)
    replication.on_primary_crash()
    assert promote_caught_up(replication) == 4  # 2 x (UPDATE + COMMIT)


def test_group_commit_size_validation():
    with pytest.raises(ValueError):
        FleetConfig(group_commit_size=0).validate()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=60))
def test_property_replay_equals_committed_effects(group, writes):
    """A caught-up replica's redo pass replays exactly the writes whose
    group was forced before the crash, two records each."""
    replication = make_log(group)
    write(replication, writes)
    replication.on_primary_crash()
    forced = writes - writes % group
    assert promote_caught_up(replication) == 2 * forced
    assert replication.lost_commits == writes - forced
