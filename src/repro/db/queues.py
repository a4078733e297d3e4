"""Worker request queues.

Shore-MT's default request queues are FIFO; the POLARIS prototype
modifies them so "requests are queued in EDF order" (Section 5).  Both
disciplines share one interface so workers and schedulers are agnostic:

* ``push(request)`` --- enqueue;
* ``pop()`` --- dequeue the next request to execute;
* iteration and ``pending()`` --- the waiting requests **in queue
  order** (EDF order for the EDF queue), which is exactly the order
  SetProcessorFreq scans the queue in (Figure 2, line 6).
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import TYPE_CHECKING, Deque, Iterator, List, Optional

if TYPE_CHECKING:  # layering: queues sit below the request layer
    from repro.core.request import Request


class RequestQueue:
    """Interface for worker request queues."""

    def push(self, request: Request) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[Request]:
        raise NotImplementedError

    def peek(self) -> Optional[Request]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Request]:
        raise NotImplementedError

    def pending(self) -> List[Request]:
        """The waiting requests in pop order, as a new list: the POLARIS
        walk indexes and slices it, which a generator cannot do."""
        raise NotImplementedError


class FifoQueue(RequestQueue):
    """Arrival-order queue (Shore-MT's default scheduler)."""

    def __init__(self):
        self._items: Deque[Request] = deque()

    def push(self, request: Request) -> None:
        self._items.append(request)

    def pop(self) -> Optional[Request]:
        return self._items.popleft() if self._items else None

    def peek(self) -> Optional[Request]:
        return self._items[0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._items)

    def pending(self) -> List[Request]:
        return list(self._items)


class EdfQueue(RequestQueue):
    """Earliest-deadline-first queue.

    Backed by a sorted array keyed on ``(deadline, request_id)``; the
    id tiebreak makes ordering deterministic and FIFO among equal
    deadlines.  Insertion is an O(log n) locate plus an O(n - idx)
    memmove of the entries *behind* the insertion point --- the same
    cost envelope as the prototype's ordered queue.  ``pop`` is
    amortized O(1): a head pointer advances past dequeued entries and
    the backing arrays are compacted only when the dead prefix exceeds
    both a fixed floor and half the array (each entry is deleted at
    most once per O(n) compaction, and a compaction removes >= ``n/2``
    entries).  The head pop was previously ``list.pop(0)`` --- an O(n)
    memmove per dispatch on the server's hottest path.
    """

    #: Compact only past this many dead slots, so small queues (the
    #: common case at the paper's load levels) never pay the copy.
    _COMPACT_MIN = 64

    def __init__(self):
        self._keys: List[tuple] = []
        self._items: List[Request] = []
        self._head = 0  # index of the current front entry

    def push(self, request: Request) -> None:
        key = (request.deadline, request.request_id)
        idx = bisect.bisect_left(self._keys, key, lo=self._head)
        self._keys.insert(idx, key)
        self._items.insert(idx, request)

    def pop(self) -> Optional[Request]:
        if self._head >= len(self._items):
            return None
        request = self._items[self._head]
        # Drop the reference so a dequeued request is collectable before
        # the next compaction truncates the slot.
        self._items[self._head] = None  # type: ignore[call-overload]
        self._head += 1
        if self._head >= self._COMPACT_MIN \
                and self._head * 2 >= len(self._items):
            del self._keys[:self._head]
            del self._items[:self._head]
            self._head = 0
        return request

    def peek(self) -> Optional[Request]:
        return self._items[self._head] \
            if self._head < len(self._items) else None

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __iter__(self) -> Iterator[Request]:
        for idx in range(self._head, len(self._items)):
            yield self._items[idx]

    def pending(self) -> List[Request]:
        return self._items[self._head:]
