"""Lock manager: S/X compatibility, upgrades, no-wait conflicts."""

import pytest

from repro.db.storage.locks import LockConflictError, LockManager, LockMode

S = LockMode.SHARED
X = LockMode.EXCLUSIVE


@pytest.fixture
def locks():
    return LockManager()


def test_shared_locks_compatible(locks):
    locks.acquire(1, "t", (1,), S)
    locks.acquire(2, "t", (1,), S)
    assert locks.holds(1, "t", (1,), S)
    assert locks.holds(2, "t", (1,), S)


def test_exclusive_conflicts_with_shared(locks):
    locks.acquire(1, "t", (1,), S)
    with pytest.raises(LockConflictError):
        locks.acquire(2, "t", (1,), X)
    assert locks.conflicts == 1


def test_shared_conflicts_with_exclusive(locks):
    locks.acquire(1, "t", (1,), X)
    with pytest.raises(LockConflictError):
        locks.acquire(2, "t", (1,), S)


def test_exclusive_conflicts_with_exclusive(locks):
    locks.acquire(1, "t", (1,), X)
    with pytest.raises(LockConflictError):
        locks.acquire(2, "t", (1,), X)


def test_reentrant_acquisition(locks):
    locks.acquire(1, "t", (1,), S)
    locks.acquire(1, "t", (1,), S)  # no-op
    locks.acquire(1, "t", (1,), X)  # upgrade as sole holder
    assert locks.holds(1, "t", (1,), X)
    locks.acquire(1, "t", (1,), S)  # X covers S
    assert locks.holds(1, "t", (1,), X)


def test_upgrade_blocked_by_other_shared_holder(locks):
    locks.acquire(1, "t", (1,), S)
    locks.acquire(2, "t", (1,), S)
    with pytest.raises(LockConflictError):
        locks.acquire(1, "t", (1,), X)


def test_different_resources_independent(locks):
    locks.acquire(1, "t", (1,), X)
    locks.acquire(2, "t", (2,), X)
    locks.acquire(2, "u", (1,), X)  # same key, different table
    assert locks.total_locked_resources() == 3


def test_release_all(locks):
    locks.acquire(1, "t", (1,), X)
    locks.acquire(1, "t", (2,), S)
    locks.acquire(2, "t", (2,), S)
    locks.release_all(1)
    assert locks.held_count(1) == 0
    # Resource (2,) still held by txn 2; (1,) fully free.
    locks.acquire(3, "t", (1,), X)
    with pytest.raises(LockConflictError):
        locks.acquire(3, "t", (2,), X)


def test_release_unknown_txn_is_noop(locks):
    locks.release_all(99)  # must not raise


def test_holds_semantics(locks):
    assert not locks.holds(1, "t", (1,), S)
    locks.acquire(1, "t", (1,), S)
    assert locks.holds(1, "t", (1,), S)
    assert not locks.holds(1, "t", (1,), X)
    assert not locks.holds(2, "t", (1,), S)


def test_counters(locks):
    locks.acquire(1, "t", (1,), S)
    locks.acquire(2, "t", (1,), S)
    assert locks.acquisitions == 2
    locks.acquire(1, "t", (1,), S)  # re-entrant: not counted
    assert locks.acquisitions == 2
