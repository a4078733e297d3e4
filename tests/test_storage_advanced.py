"""Advanced lock-manager features: wait-die, deadlock detection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.storage.locks import (
    LockConflictError, LockManager, LockMode, WouldWaitError, find_deadlock,
)

S = LockMode.SHARED
X = LockMode.EXCLUSIVE


# ----------------------------------------------------------------------
# Wait-die
# ----------------------------------------------------------------------
def test_wait_die_older_requester_waits():
    locks = LockManager(policy="wait-die")
    locks.acquire(5, "t", (1,), X)
    with pytest.raises(WouldWaitError):
        locks.acquire(3, "t", (1,), X)  # older (smaller id) may wait
    assert locks.waits == 1
    assert locks.deaths == 0


def test_wait_die_younger_requester_dies():
    locks = LockManager(policy="wait-die")
    locks.acquire(3, "t", (1,), X)
    with pytest.raises(LockConflictError) as info:
        locks.acquire(5, "t", (1,), X)  # younger dies
    assert not isinstance(info.value, WouldWaitError)
    assert locks.deaths == 1


def test_wait_die_retry_succeeds_after_release():
    locks = LockManager(policy="wait-die")
    locks.acquire(5, "t", (1,), X)
    with pytest.raises(WouldWaitError):
        locks.acquire(3, "t", (1,), X)
    locks.release_all(5)
    locks.acquire(3, "t", (1,), X)  # retry wins
    assert locks.holds(3, "t", (1,), X)


def test_wait_die_mixed_holders():
    locks = LockManager(policy="wait-die")
    locks.acquire(2, "t", (1,), S)
    locks.acquire(9, "t", (1,), S)
    # Requester 5 is older than 9 but younger than 2 -> dies.
    with pytest.raises(LockConflictError) as info:
        locks.acquire(5, "t", (1,), X)
    assert not isinstance(info.value, WouldWaitError)
    # Requester 1 is older than both -> may wait.
    with pytest.raises(WouldWaitError):
        locks.acquire(1, "t", (1,), X)


def test_no_wait_policy_never_waits():
    locks = LockManager()  # default no-wait
    locks.acquire(5, "t", (1,), X)
    with pytest.raises(LockConflictError) as info:
        locks.acquire(3, "t", (1,), X)
    assert not isinstance(info.value, WouldWaitError)


def test_policy_validation():
    with pytest.raises(ValueError):
        LockManager(policy="bogus")


# ----------------------------------------------------------------------
# Deadlock detection
# ----------------------------------------------------------------------
def test_find_deadlock_simple_cycle():
    cycle = find_deadlock({1: [2], 2: [1]})
    assert cycle is not None
    assert set(cycle) == {1, 2}


def test_find_deadlock_longer_cycle():
    cycle = find_deadlock({1: [2], 2: [3], 3: [4], 4: [2]})
    assert cycle is not None
    assert set(cycle) == {2, 3, 4}


def test_find_deadlock_acyclic():
    assert find_deadlock({1: [2], 2: [3], 4: [3]}) is None
    assert find_deadlock({}) is None


def test_find_deadlock_self_wait():
    cycle = find_deadlock({7: [7]})
    assert cycle == [7]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 8),
                       st.lists(st.integers(0, 8), max_size=4),
                       max_size=9))
def test_property_detected_cycles_are_real(graph):
    cycle = find_deadlock(graph)
    if cycle is None:
        return
    # Every reported edge must exist, closing back to the start.
    for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
        assert b in graph.get(a, [])

