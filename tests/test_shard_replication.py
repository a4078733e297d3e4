"""The shard WAL model: group commit, crash semantics, replay and trim.

:class:`repro.fleet.router.ShardReplication` keeps each shard's
write-ahead log as LSN counters.  The example tests pin the log
behaviour the failure machinery reads; the seed-swept properties pin
the contract under group-commit boundaries: a crash loses exactly the
buffered-but-unforced tail, every force ends on the COMMIT that filled
its group, and the failover trim leaves a log that ends exactly at the
promoted replica's applied prefix.
"""

import random
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.fleet import router
from repro.fleet.router import ShardReplication

SEEDS = st.integers(min_value=0, max_value=10_000)
GROUPS = st.integers(min_value=1, max_value=12)
COUNTS = st.integers(min_value=1, max_value=40)


def group_commit(size):
    """Inside the block, a shard log forces every ``size`` commits."""
    return mock.patch.object(router, "GROUP_COMMIT_SIZE", size)


def make_log():
    return ShardReplication(SimpleNamespace(now=0.0), 0)


def write(replication, count):
    for key in range(count):
        replication.on_write_committed(key)


def commit_lsns(count):
    """Every write takes a row-image LSN, then its COMMIT's."""
    return [2 * (i + 1) for i in range(count)]


def promote_caught_up(replication):
    """Promote a zero-lag replica; returns the records its redo replays."""
    replica = SimpleNamespace(node_id=1, replication_lag_s=0.0)
    return replication.promote_to(replica, replication.sim.now)


# ----------------------------------------------------------------------
# Group commit and crash semantics
# ----------------------------------------------------------------------
def test_records_get_monotonic_lsns():
    with group_commit(1):
        replication = make_log()
        write(replication, 3)
        assert replication.force_lsn == commit_lsns(3)
        assert replication.next_lsn == 7


def test_group_commit_forces_every_n_commits():
    with group_commit(3):
        replication = make_log()
        write(replication, 6)
        # 6 commits with threshold 3 -> exactly 2 group forces, each right
        # after the COMMIT that filled its group.
        assert replication.force_lsn == [6, 12]
        assert replication.buffered_commits == 0


def test_buffer_not_durable_until_force():
    with group_commit(100):
        replication = make_log()
        write(replication, 99)
        assert replication.force_lsn == []
        assert replication.buffered_commits == 99
        replica = SimpleNamespace(node_id=1, replication_lag_s=0.0)
        assert replication.applied_lsn(replica, 0.0) == 0  # nothing shipped
        write(replication, 1)  # the 100th COMMIT fills the group
        assert replication.force_lsn == [200]
        assert replication.buffered_commits == 0


def test_crash_drops_buffered_tail():
    with group_commit(2):
        replication = make_log()
        write(replication, 3)
        assert replication.on_primary_crash() == 1
        assert replication.force_lsn == [4]  # commits 2 and 4 durable
        assert replication.buffered_commits == 0


def test_replay_applies_only_committed():
    """Only commits that reached the durable log are replayed: the
    write whose COMMIT was still buffered at the crash is not."""
    with group_commit(2):
        replication = make_log()
        write(replication, 3)
        replication.on_primary_crash()
        assert promote_caught_up(replication) == 4  # 2 x (UPDATE + COMMIT)


# ----------------------------------------------------------------------
# Seed-swept properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(GROUPS, st.integers(min_value=0, max_value=60))
def test_property_replay_equals_committed_effects(group, writes):
    """A caught-up replica's redo pass replays exactly the writes whose
    group was forced before the crash, two records each."""
    with group_commit(group):
        replication = make_log()
        write(replication, writes)
        replication.on_primary_crash()
        forced = writes - writes % group
        assert promote_caught_up(replication) == 2 * forced
        assert replication.lost_commits == writes - forced


@given(GROUPS, COUNTS)
@settings(max_examples=60, deadline=None)
def test_crash_preserves_exactly_the_durable_commits(group, count):
    with group_commit(group):
        replication = make_log()
        write(replication, count)
        # Group commit bounds the loss window: a full group forces, so at
        # most group-1 commits can ever sit in the buffer.
        assert replication.buffered_commits <= group - 1
        buffered = replication.buffered_commits
        lost = replication.on_primary_crash()
        assert lost == buffered == replication.lost_commits
        assert replication.buffered_commits == 0
        # Forces are in commit order, each on the COMMIT that filled its
        # group, and the crash lost exactly the buffered commits.
        assert replication.force_lsn == commit_lsns(count)[group - 1::group]
        assert count - group * len(replication.force_lsn) == lost


@given(COUNTS)
@settings(max_examples=40, deadline=None)
def test_group_of_one_never_loses_a_commit(count):
    with group_commit(1):
        replication = make_log()
        write(replication, count)
        assert replication.buffered_commits == 0
        assert replication.on_primary_crash() == 0
        assert replication.force_lsn == commit_lsns(count)


@given(SEEDS, GROUPS, COUNTS)
@settings(max_examples=40, deadline=None)
def test_discard_after_trims_to_the_applied_prefix(seed, group, count):
    """The failover trim: promoting a replica whose apply position sits
    at an arbitrary force-aligned LSN cuts the durable log to that
    prefix, with the cut commits lost for good."""
    rng = random.Random(seed)
    clock = SimpleNamespace(now=0.0)
    with group_commit(group):
        replication = ShardReplication(clock, 0)
        for key in range(count):
            clock.now += 1.0  # whole seconds: lag arithmetic stays exact
            replication.on_write_committed(key)
        replication.on_primary_crash()
        # A lag of (now - t) has applied exactly the force made at t; a lag
        # longer than the run has applied nothing.
        positions = [(clock.now + 1.0, 0)] + [
            (clock.now - force_t, lsn) for force_t, lsn
            in zip(replication.force_s, replication.force_lsn)]
        lag_s, lsn = rng.choice(positions)
        replica = SimpleNamespace(node_id=1, replication_lag_s=lag_s)
        assert replication.applied_lsn(replica, clock.now) == lsn
        forces = list(replication.force_lsn)
        prefix = [forced for forced in forces if forced <= lsn]
        lost_before = replication.lost_commits
        records = replication.promote_to(replica, clock.now)
        assert replication.lost_commits - lost_before == group * (
            len(forces) - len(prefix))
        assert replication.force_lsn == prefix
        assert records == 2 * group * len(prefix)
