"""Deterministic discrete-event simulation engine.

The engine orders events by ``(time, priority, sequence)``: ties at the
same virtual time break first on an explicit integer priority (lower
runs first) and then on insertion order, which keeps runs fully
deterministic regardless of hash randomization or container internals.

One structure implements that contract: a global binary heap
(:mod:`heapq`) of plain lists ``[time, priority, seq, callback,
cancelled, sim]``.  The entry is also the handle
:meth:`Simulator.schedule` returns, so

* building one is a list display, served from CPython's list freelist
  and freed back to it (a ``list`` *subclass* instance costs 3-4x as
  much to build, and is freed through subtype dealloc, which has no
  freelist --- once per event, that was the largest single cost of a
  governor cell);
* every heap comparison is ``list < list`` in C, and because ``seq`` is
  unique per simulator it is decided by the third item at the latest
  --- the callback is never compared.  That is also why the entry must
  stay a plain list: a type that defines any rich comparison
  (``__eq__``, ``__lt__``, ...) swaps the C ``tp_richcompare`` slot for
  Python dispatch on every sift step (measured 1.45x slower push+pop).
  Content equality of two entries is identity, again because ``seq`` is
  unique and ``sim`` differs across simulators; entries are not
  hashable.

:class:`Event` is never instantiated: it holds the operations on an
entry.  ``Event.cancel(entry)``, looked up on the class at each call,
is the one cancellation path in the program, so a wrapper installed on
the class (a profiler's span) sees every cancellation.

A heap's O(log n) push/pop is the right trade here because the pending
depth is tiny: arrivals self-schedule one at a time, so the queue holds
about one completion per busy core plus a few timers (measured max /
mean: 48 / 34 on a 16-worker server under ``ondemand``, 33 / 20 under
POLARIS, 13 / 7 on a 2x2 elastic fleet).  ``tests/test_engine_depth.py``
pins that bound, so a component that starts pre-scheduling a whole trace
fails a test instead of quietly slowing every run.

Design notes
------------
* Virtual time is a float in **seconds**.  The workloads in this
  reproduction operate at microsecond granularity (transaction service
  times of 60 us .. 8 ms), which is comfortably inside double precision
  for simulated horizons of minutes.  NaN and infinite times are
  rejected when scheduled: in a heap a NaN compares false against
  everything and would silently corrupt the order.
* Cancellation is O(1): entries carry a ``cancelled`` flag and are skipped
  when popped.  This matches how the CPU core model reschedules a
  transaction's completion when POLARIS changes the frequency mid-run.
  To keep reschedule-heavy runs (every frequency change cancels and
  re-adds a completion event) from growing the queue unboundedly, the
  simulator compacts the heap in place once cancelled garbage
  dominates; the amortized cost per cancellation stays O(log n).
* Callbacks receive no arguments; use :func:`functools.partial` or
  closures to bind state.  This keeps the hot loop free of argument
  plumbing.
* Every pending entry points back at its simulator (``entry[5]``), so
  a finished run's heap is a reference cycle; :meth:`Simulator.close`
  clears it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Callable, List, Optional

from repro.analysis.sanitizer import invariant, simsan_enabled
from repro.obs.trace import Tracer, resolve_tracer

#: Compaction triggers when the queue holds more than this many cancelled
#: events *and* they outnumber the live ones.  Small enough to bound
#: memory on reschedule-heavy runs, large enough that compaction cost is
#: amortized over many cancellations.
COMPACTION_MIN_GARBAGE = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Event:
    """The operations on a heap entry; never instantiated.

    :meth:`Simulator.schedule` returns the entry itself, the plain list
    ``[time, priority, seq, callback, cancelled, sim]`` (see the module
    docstring for why it is a plain list and why nothing may define a
    rich comparison for it).  User code treats the entry as an opaque
    handle: it may read ``entry[0]`` (the time) and cancel it with
    ``Event.cancel(entry)``.
    """

    @staticmethod
    def cancel(entry: list) -> None:
        """Mark ``entry`` so the engine skips it when its time comes.

        Cancelling an entry that already fired (or was already
        cancelled) is a harmless no-op: the live-event accounting is
        only adjusted the first time a still-pending entry is cancelled.
        """
        if entry[4] or entry[3] is None:
            return
        entry[4] = True
        sim = entry[5]
        sim._live -= 1
        sim._stale += 1
        if sim._stale > COMPACTION_MIN_GARBAGE and sim._stale > sim._live:
            sim._compact()


class Simulator:
    """Discrete-event loop with a virtual clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self, sanitize: Optional[bool] = None,
                 tracer: Optional[Tracer] = None):
        self.now: float = 0.0
        #: simsan: resolved once at construction (arg > REPRO_SIMSAN env)
        #: and hoisted into a local before hot loops, so a disabled
        #: sanitizer costs one boolean test per event.
        self.sanitize: bool = simsan_enabled(sanitize)
        #: repro.obs: the simulator carries the tracer so every
        #: component that holds a ``sim`` reference (cores, servers,
        #: governors) reads ``sim.tracer`` --- the same inheritance
        #: path as ``sim.sanitize``.  The engine itself records only
        #: run boundaries, *outside* the event loop: per-event tracing
        #: lives in the components, so a disabled tracer costs the hot
        #: loop nothing at all.
        self.tracer: Tracer = resolve_tracer(tracer)
        #: the event heap; mutated only in place (a running :meth:`run`
        #: holds a reference to this very list).
        self._heap: List[list] = []
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: live (scheduled, not cancelled, not fired) events in the heap.
        self._live: int = 0
        #: cancelled events still occupying heap slots.
        self._stale: int = 0
        #: total callbacks executed over this simulator's lifetime.
        self.events_processed: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None],
                 priority: int = 0) -> list:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.  Returns the heap
        entry, which :meth:`Event.cancel` may cancel before it fires.
        """
        # One chained comparison rejects negative, NaN and infinite.  The
        # rest repeats schedule_at's body rather than calling it: this
        # runs once per event, and the extra frame is measurable.
        if not 0.0 <= delay < inf:
            raise SimulationError(
                f"cannot schedule {delay!r} seconds from now: the delay "
                f"must be non-negative and finite")
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, priority, seq, callback, False, self]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule_at(self, time: float, callback: Callable[[], None],
                    priority: int = 0) -> list:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if not self.now <= time < inf:
            raise SimulationError(
                f"cannot schedule at {time!r}: the time must be finite "
                f"and not before now ({self.now})")
        self._seq = seq = self._seq + 1
        entry = [time, priority, seq, callback, False, self]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in order until the queue drains or ``until``.

        When ``until`` is given, all events with ``time <= until`` are
        processed and the clock is then advanced to exactly ``until``
        (so periodic samplers observe a full final interval).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        heap = self._heap
        limit = inf if until is None else until
        sanitize = self.sanitize
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(tracer.track("sim", "engine"), "run:begin",
                           self.now, pending=self._live,
                           until_s=until if until is not None else -1.0)
        processed = 0
        try:
            while heap and not self._stopped:
                event = heap[0]
                if event[0] > limit:
                    break
                heappop(heap)
                if event[4]:
                    self._stale -= 1
                    continue
                if sanitize:
                    self._check_fires_now(event)
                callback = event[3]
                event[3] = None  # marks it fired; frees the closure
                self._live -= 1
                self.now = event[0]
                processed += 1
                callback()
            if until is not None and not self._stopped and self.now < until:
                self.now = until
            if sanitize:
                self.sanitize_check()
            if tracer.enabled:
                tracer.instant(tracer.track("sim", "engine"), "run:end",
                               self.now, processed=processed,
                               pending=self._live)
        finally:
            self.events_processed += processed
            self._running = False

    def step(self) -> bool:
        """Process a single (non-cancelled) event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        Useful in tests that want to observe intermediate states.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)
            if event[4]:
                self._stale -= 1
                continue
            if self.sanitize:
                self._check_fires_now(event)
            callback = event[3]
            event[3] = None
            self._live -= 1
            self.now = event[0]
            self.events_processed += 1
            callback()
            return True
        return False

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return self._live

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or ``None`` if drained."""
        heap = self._heap
        while heap:
            event = heap[0]
            if not event[4]:
                return event[0]
            heappop(heap)
            self._stale -= 1
        return None

    def heap_size(self) -> int:
        """Heap slots in use, including cancelled garbage (diagnostics)."""
        return len(self._heap)

    def close(self) -> None:
        """Discard every pending event: the run is over and nothing may
        resume it.

        Each pending event reads as cancelled and drops its callback,
        so neither the heap (which every event points back to) nor a
        component still holding the handle of its next timer keeps the
        run's objects alive: they die by reference count, not by
        waiting for a full garbage collection.
        """
        if self._running:
            raise SimulationError("close() called from inside run()")
        for event in self._heap:
            event[3] = None
            event[4] = True
        self._heap.clear()
        self._live = 0
        self._stale = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled events from the heap, in place."""
        heap = self._heap
        heap[:] = [event for event in heap if not event[4]]
        heapify(heap)
        self._stale = 0
        if self.sanitize:
            self.sanitize_check()

    # ------------------------------------------------------------------
    # simsan
    # ------------------------------------------------------------------
    def _check_fires_now(self, event: list) -> None:
        invariant(event[0] >= self.now, "clock-monotonic",
                  "event fires before the current clock",
                  event_time=event[0], now=self.now,
                  seq=event[2], priority=event[1])

    def sanitize_check(self) -> None:
        """Verify the engine's structural invariants (O(queue size)).

        Run automatically after :meth:`run` and after every compaction
        when the sanitizer is enabled; callable directly from tests.
        Checks, in order:

        * **heap-integrity** --- the binary-heap ordering property holds
          for every parent/child pair;
        * **clock-monotonic** --- no pending event is scheduled in the
          past;
        * **event-accounting** --- ``_live``/``_stale`` counters match a
          direct census of the heap, so :meth:`pending_count` is exact
          and compaction triggers when it should.
        """
        heap = self._heap
        for index in range(1, len(heap)):
            parent = (index - 1) >> 1
            invariant(not heap[index] < heap[parent], "heap-integrity",
                      "heap ordering property violated",
                      index=index, parent=parent,
                      child_time=heap[index][0],
                      parent_time=heap[parent][0])
        pending = 0
        cancelled = 0
        for event in heap:
            if event[4]:
                cancelled += 1
                continue
            pending += 1
            invariant(event[0] >= self.now, "clock-monotonic",
                      "pending event is scheduled in the past",
                      event_time=event[0], now=self.now, seq=event[2])
        invariant(self._live == pending, "event-accounting",
                  "live-event counter disagrees with the heap census",
                  live_counter=self._live, pending_in_heap=pending,
                  now=self.now)
        invariant(self._stale == cancelled, "event-accounting",
                  "stale-event counter disagrees with the heap census",
                  stale_counter=self._stale, cancelled_in_heap=cancelled,
                  now=self.now)
