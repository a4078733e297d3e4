"""Row-level lock manager (strict two-phase locking).

Workers in the simulated server execute each transaction from start to
finish on a single core (the VoltDB/Silo execution model POLARIS
targets, paper Section 1), so no simulated transaction takes a lock.
The lock manager implements the full S/X protocol on its own, and its
unit tests exercise conflicts directly.

Two conflict policies are provided:

* **no-wait** (default): a conflicting request raises
  :class:`LockConflictError` immediately.  Deadlock-free by
  construction, matching the run-to-completion worker model.
* **wait-die** (Rosenkrantz et al.): an *older* requester (smaller
  transaction id) is allowed to wait --- signalled to the caller as
  :class:`WouldWaitError`, since single-threaded callers must retry
  rather than block --- while a *younger* requester dies
  (:class:`LockConflictError`).  Deadlock-free because waits only ever
  point from older to younger transactions.

:func:`find_deadlock` is a standalone waits-for-graph cycle detector
for engines that do block.
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple


class LockConflictError(Exception):
    """Lock request conflicts with a lock held by another transaction."""


class WouldWaitError(LockConflictError):
    """Wait-die: the (older) requester is entitled to wait and retry."""


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) mode."""

    SHARED = "S"
    EXCLUSIVE = "X"


def find_deadlock(waits_for: Dict[int, Iterable[int]]) -> Optional[List[int]]:
    """Find a cycle in a waits-for graph.

    ``waits_for[t]`` lists the transactions ``t`` is blocked on.
    Returns one cycle as a list of transaction ids (first == last
    implied), or ``None`` when the graph is acyclic.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    stack: List[int] = []

    def visit(node: int) -> Optional[List[int]]:
        color[node] = GREY
        stack.append(node)
        for neighbour in waits_for.get(node, ()):
            state = color.get(neighbour, WHITE)
            if state == GREY:
                cycle_start = stack.index(neighbour)
                return stack[cycle_start:]
            if state == WHITE:
                cycle = visit(neighbour)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in list(waits_for):
        if color.get(node, WHITE) == WHITE:
            cycle = visit(node)
            if cycle is not None:
                return cycle
    return None


class _LockEntry:
    __slots__ = ("mode", "holders")

    def __init__(self):
        self.mode: LockMode = LockMode.SHARED
        self.holders: Set[int] = set()


class LockManager:
    """Tracks S/X locks on ``(table, key)`` resources per transaction id.

    ``policy`` selects conflict handling: "no-wait" (default) or
    "wait-die" (see module docstring).
    """

    def __init__(self, policy: str = "no-wait"):
        if policy not in ("no-wait", "wait-die"):
            raise ValueError(f"unknown lock policy {policy!r}")
        self.policy = policy
        self._locks: Dict[Tuple[str, Hashable], _LockEntry] = {}
        self._held_by: Dict[int, Set[Tuple[str, Hashable]]] = {}
        self.conflicts = 0
        self.acquisitions = 0
        self.waits = 0
        self.deaths = 0

    def _conflict(self, txn_id: int, holders: Set[int], message: str):
        """Dispatch a conflict per the configured policy."""
        self.conflicts += 1
        if self.policy == "wait-die" and all(txn_id < h for h in holders):
            self.waits += 1
            raise WouldWaitError(f"{message} (older txn may wait/retry)")
        if self.policy == "wait-die":
            self.deaths += 1
        raise LockConflictError(message)

    # ------------------------------------------------------------------
    def acquire(self, txn_id: int, table: str, key: Hashable,
                mode: LockMode) -> None:
        """Grant ``txn_id`` a lock on ``(table, key)`` or raise.

        Re-entrant: repeated requests by the holder are no-ops, and a
        sole shared holder may upgrade to exclusive.
        """
        resource = (table, key)
        entry = self._locks.get(resource)
        if entry is None:
            entry = _LockEntry()
            entry.mode = mode
            entry.holders = {txn_id}
            self._locks[resource] = entry
            self._held_by.setdefault(txn_id, set()).add(resource)
            self.acquisitions += 1
            return

        if txn_id in entry.holders:
            if mode is LockMode.EXCLUSIVE and entry.mode is LockMode.SHARED:
                if len(entry.holders) == 1:
                    entry.mode = LockMode.EXCLUSIVE  # upgrade
                    return
                self._conflict(
                    txn_id, entry.holders - {txn_id},
                    f"txn {txn_id} cannot upgrade {resource}: "
                    f"{len(entry.holders) - 1} other shared holder(s)")
            return  # already held in a sufficient mode

        compatible = (mode is LockMode.SHARED
                      and entry.mode is LockMode.SHARED)
        if not compatible:
            self._conflict(
                txn_id, entry.holders,
                f"txn {txn_id} blocked on {resource} held "
                f"{entry.mode.value} by {sorted(entry.holders)}")
        entry.holders.add(txn_id)
        self._held_by.setdefault(txn_id, set()).add(resource)
        self.acquisitions += 1

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (commit/abort time)."""
        for resource in self._held_by.pop(txn_id, set()):
            entry = self._locks.get(resource)
            if entry is None:
                continue
            entry.holders.discard(txn_id)
            if not entry.holders:
                del self._locks[resource]

    # ------------------------------------------------------------------
    def holds(self, txn_id: int, table: str, key: Hashable,
              mode: LockMode) -> bool:
        """Whether ``txn_id`` holds at least ``mode`` on the resource."""
        entry = self._locks.get((table, key))
        if entry is None or txn_id not in entry.holders:
            return False
        if mode is LockMode.SHARED:
            return True
        return entry.mode is LockMode.EXCLUSIVE

    def held_count(self, txn_id: int) -> int:
        return len(self._held_by.get(txn_id, ()))

    def total_locked_resources(self) -> int:
        return len(self._locks)
