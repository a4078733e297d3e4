"""Seed-swept crash/promotion round-trips under group-commit boundaries.

Property tests for the WAL contract of the fleet failure model
(:class:`repro.fleet.chaos.ShardReplication`): a crash loses exactly
the buffered-but-unforced tail, the durable commits are always a
prefix of commit order, and the failover trim leaves a log that ends
exactly at the promoted replica's applied prefix.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.fleet.chaos import ShardReplication

SEEDS = st.integers(min_value=0, max_value=10_000)
GROUPS = st.integers(min_value=1, max_value=12)
COUNTS = st.integers(min_value=1, max_value=40)


def commit_lsns(count):
    """Every write takes a row-image LSN, then its COMMIT's."""
    return [2 * (i + 1) for i in range(count)]


@given(GROUPS, COUNTS)
@settings(max_examples=60, deadline=None)
def test_crash_preserves_exactly_the_durable_commits(group, count):
    replication = ShardReplication(SimpleNamespace(now=0.0), 0, group)
    for _ in range(count):
        replication.on_write_committed()
    # Group commit bounds the loss window: a full group forces, so at
    # most group-1 commits can ever sit in the buffer.
    assert len(replication.buffered_commits) <= group - 1
    buffered = len(replication.buffered_commits)
    lost = replication.on_primary_crash()
    assert lost == buffered == replication.lost_commits
    assert replication.buffered_commits == []
    durable = replication.durable_commits
    # The durable commits are a *prefix* of commit order (forces are
    # in-order), and the crash lost exactly the buffered commits.
    assert durable == commit_lsns(count)[:len(durable)]
    assert count - len(durable) == lost


@given(COUNTS)
@settings(max_examples=40, deadline=None)
def test_group_of_one_never_loses_a_commit(count):
    replication = ShardReplication(SimpleNamespace(now=0.0), 0,
                                   group_commit_size=1)
    for _ in range(count):
        replication.on_write_committed()
    assert replication.buffered_commits == []
    assert replication.on_primary_crash() == 0
    assert replication.durable_commits == commit_lsns(count)


@given(SEEDS, GROUPS, COUNTS)
@settings(max_examples=40, deadline=None)
def test_discard_after_trims_to_the_applied_prefix(seed, group, count):
    """The failover trim: promoting a replica whose apply position sits
    at an arbitrary force-aligned LSN cuts the durable log to that
    prefix, with the cut commits lost for good."""
    rng = random.Random(seed)
    clock = SimpleNamespace(now=0.0)
    replication = ShardReplication(clock, 0, group)
    for _ in range(count):
        clock.now += 1.0  # whole seconds: lag arithmetic stays exact
        replication.on_write_committed()
    replication.on_primary_crash()
    # A lag of (now - t) has applied exactly the force made at t; a lag
    # longer than the run has applied nothing.
    positions = [(clock.now + 1.0, 0)] + [
        (clock.now - force_t, lsn)
        for force_t, lsn in replication.force_times]
    lag_s, lsn = rng.choice(positions)
    replica = SimpleNamespace(node_id=1, replication_lag_s=lag_s)
    assert replication.applied_lsn(1, lag_s, clock.now) == lsn
    durable = list(replication.durable_commits)
    prefix = [commit for commit in durable if commit <= lsn]
    lost_before = replication.lost_commits
    records = replication.promote_to(replica, lag_s, clock.now)
    assert replication.lost_commits - lost_before == len(durable) \
        - len(prefix)
    assert replication.durable_commits == prefix
    assert records == 2 * len(prefix)
    assert all(forced <= lsn for _, forced in replication.force_times)
