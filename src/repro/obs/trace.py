"""The Tracer: a deterministic event sink on the virtual clock.

Components that hold simulation state reach the tracer through their
:class:`~repro.sim.engine.Simulator` (``sim.tracer``), exactly as they
inherit the simsan flag.  Every recording method bails on a single
pre-resolved boolean (:attr:`Tracer.enabled`), and hot paths are
expected to guard with ``if tracer.enabled:`` *before* building
argument dicts, so the disabled subsystem costs one boolean test at
most (``tests/test_obs_trace.py`` counts the engine's tracer calls).

Event model
-----------
The tracer speaks the Chrome trace-event vocabulary (the format
Perfetto ingests):

* **spans** (``B``/``E``) on a *track* --- one worker's non-preemptive
  transaction executions;
* **async spans** (``b``/``e``) tied by a category + id --- one
  transaction's whole life (enqueue to completion), which overlaps
  other transactions on the same worker;
* **instants** (``i``) --- scheduler decisions, P-state transitions,
  governor samples;
* **counters** (``C``) --- per-core frequency, queue depth.

A *track* is a (process, thread) name pair mapped to small integer
ids in registration order, so ids --- like every timestamp --- are a
pure function of the simulation and traces are byte-identical across
same-seed runs.  Timestamps are virtual-clock seconds converted to the
format's mandatory integer microseconds (``ts_us``; see the RL006
audited exemptions).
"""

from __future__ import annotations

import os
from typing import Dict, Hashable, List, Optional, Tuple

#: Environment variable that switches tracing on globally.
TRACE_ENV = "REPRO_TRACE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def trace_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the tracing state for a component being constructed.

    ``override`` is the component's explicit ``trace=`` argument:
    ``True``/``False`` win outright, ``None`` defers to the
    :data:`TRACE_ENV` environment variable (same contract as
    :func:`repro.analysis.sanitizer.simsan_enabled`).
    """
    if override is not None:
        return bool(override)
    return os.environ.get(TRACE_ENV, "").strip().lower() in _TRUTHY


def to_trace_us(now_s: float) -> int:
    """Virtual seconds -> the trace format's integer microseconds."""
    return int(round(now_s * 1e6))


class TraceTrack:
    """One (process, thread) pair; an opaque handle for emitters."""

    __slots__ = ("pid", "tid", "process", "thread")

    def __init__(self, pid: int, tid: int, process: str, thread: str):
        self.pid = pid
        self.tid = tid
        self.process = process
        self.thread = thread

    def __repr__(self) -> str:
        return (f"<TraceTrack {self.process}/{self.thread} "
                f"pid={self.pid} tid={self.tid}>")


#: Handle returned by :meth:`Tracer.track` while tracing is disabled;
#: never recorded, exists so callers can register tracks unconditionally.
NULL_TRACK = TraceTrack(0, 0, "null", "null")


class TraceEvent:
    """One recorded event (internal storage; exporters shape the JSON)."""

    __slots__ = ("ph", "ts_us", "pid", "tid", "name", "cat", "scope_id",
                 "args")

    def __init__(self, ph: str, ts_us: int, pid: int, tid: int, name: str,
                 cat: Optional[str] = None,
                 scope_id: Optional[int] = None,
                 args: Optional[Dict[str, object]] = None):
        self.ph = ph
        self.ts_us = ts_us
        self.pid = pid
        self.tid = tid
        self.name = name
        self.cat = cat
        self.scope_id = scope_id
        self.args = args

    def __repr__(self) -> str:
        return (f"<TraceEvent {self.ph} {self.name!r} ts_us={self.ts_us} "
                f"pid={self.pid} tid={self.tid}>")


class Tracer:
    """Collects trace events on the virtual clock.

    ``Tracer()`` is enabled; the shared :data:`NULL_TRACER` is the
    disabled instance every un-traced simulation holds.  All recording
    methods take the current virtual time in seconds (``now_s``) ---
    the tracer never reads a clock itself.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self.events: List[TraceEvent] = []
        self._tracks: Dict[Tuple[str, str], TraceTrack] = {}
        self._pids: Dict[str, int] = {}
        self._next_tid: Dict[int, int] = {}
        #: arbitrary caller keys -> dense run-local async ids, so traces
        #: do not depend on process-global counters (Request ids keep
        #: counting across runs; local ids restart at 1 every run).
        self._async_keys: Dict[Hashable, int] = {}
        #: async spans begun but not yet ended: (cat, id) -> name.
        self._open_async: Dict[Tuple[str, int], str] = {}
        #: per-track stack of open B spans (names), for finalize().
        self._open_spans: Dict[Tuple[int, int], List[str]] = {}

    # ------------------------------------------------------------------
    # Track registry
    # ------------------------------------------------------------------
    def track(self, process: str, thread: str) -> TraceTrack:
        """The (deduplicated) track for a process/thread name pair."""
        if not self.enabled:
            return NULL_TRACK
        key = (process, thread)
        existing = self._tracks.get(key)
        if existing is not None:
            return existing
        pid = self._pids.setdefault(process, len(self._pids) + 1)
        tid = self._next_tid.get(pid, 0) + 1
        self._next_tid[pid] = tid
        new = TraceTrack(pid, tid, process, thread)
        self._tracks[key] = new
        return new

    def tracks(self) -> List[TraceTrack]:
        """All registered tracks, in registration order."""
        return list(self._tracks.values())

    def async_id(self, key: Hashable) -> int:
        """Run-local dense id for an arbitrary hashable caller key."""
        local = self._async_keys.get(key)
        if local is None:
            local = len(self._async_keys) + 1
            self._async_keys[key] = local
        return local

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, track: TraceTrack, name: str, now_s: float,
              **args: object) -> None:
        """Open a synchronous span on ``track`` (Chrome ``B``)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent("B", to_trace_us(now_s), track.pid,
                                      track.tid, name, args=args or None))
        self._open_spans.setdefault((track.pid, track.tid), []).append(name)

    def end(self, track: TraceTrack, now_s: float, **args: object) -> None:
        """Close the innermost open span on ``track`` (Chrome ``E``)."""
        if not self.enabled:
            return
        stack = self._open_spans.get((track.pid, track.tid))
        name = stack.pop() if stack else "span"
        self.events.append(TraceEvent("E", to_trace_us(now_s), track.pid,
                                      track.tid, name, args=args or None))

    def instant(self, track: TraceTrack, name: str, now_s: float,
                **args: object) -> None:
        """A zero-duration marker on ``track`` (Chrome ``i``)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent("i", to_trace_us(now_s), track.pid,
                                      track.tid, name, args=args or None))

    def counter(self, track: TraceTrack, name: str, now_s: float,
                **values: float) -> None:
        """A counter sample on ``track`` (Chrome ``C``)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent("C", to_trace_us(now_s), track.pid,
                                      track.tid, name, args=dict(values)))

    def async_begin(self, cat: str, key: Hashable, name: str, now_s: float,
                    track: Optional[TraceTrack] = None,
                    **args: object) -> None:
        """Open an async span identified by ``(cat, key)`` (Chrome ``b``)."""
        if not self.enabled:
            return
        track = track or self.track(cat, cat)
        aid = self.async_id(key)
        self._open_async[(cat, aid)] = name
        self.events.append(TraceEvent("b", to_trace_us(now_s), track.pid,
                                      track.tid, name, cat=cat,
                                      scope_id=aid, args=args or None))

    def async_instant(self, cat: str, key: Hashable, name: str,
                      now_s: float, track: Optional[TraceTrack] = None,
                      **args: object) -> None:
        """A step marker inside an open async span (Chrome ``n``)."""
        if not self.enabled:
            return
        track = track or self.track(cat, cat)
        self.events.append(TraceEvent("n", to_trace_us(now_s), track.pid,
                                      track.tid, name, cat=cat,
                                      scope_id=self.async_id(key),
                                      args=args or None))

    def async_end(self, cat: str, key: Hashable, name: str, now_s: float,
                  track: Optional[TraceTrack] = None,
                  **args: object) -> None:
        """Close the async span identified by ``(cat, key)`` (Chrome ``e``)."""
        if not self.enabled:
            return
        track = track or self.track(cat, cat)
        aid = self.async_id(key)
        self._open_async.pop((cat, aid), None)
        self.events.append(TraceEvent("e", to_trace_us(now_s), track.pid,
                                      track.tid, name, cat=cat,
                                      scope_id=aid, args=args or None))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finalize(self, now_s: float) -> int:
        """Close every span still open at ``now_s``.

        A truncated run (drain limit hit mid-transaction) leaves B
        spans and async spans dangling; exporting those unbalanced
        would fail the trace-format validator, so the harness closes
        them at the final virtual time.  Returns how many spans were
        closed.
        """
        if not self.enabled:
            return 0
        closed = 0
        ts = to_trace_us(now_s)
        for (pid, tid), stack in sorted(self._open_spans.items()):
            while stack:
                name = stack.pop()
                self.events.append(TraceEvent("E", ts, pid, tid, name,
                                              args={"truncated": True}))
                closed += 1
        for (cat, aid), name in sorted(self._open_async.items()):
            track = self.track(cat, cat)
            self.events.append(TraceEvent("e", ts, track.pid, track.tid,
                                          name, cat=cat, scope_id=aid,
                                          args={"truncated": True}))
            closed += 1
        self._open_async.clear()
        return closed

    def clear(self) -> None:
        """Drop all recorded events and registries (reuse in tests)."""
        self.events.clear()
        self._tracks.clear()
        self._pids.clear()
        self._next_tid.clear()
        self._async_keys.clear()
        self._open_async.clear()
        self._open_spans.clear()

    def __len__(self) -> int:
        return len(self.events)


#: The shared disabled tracer: every recording method is a guarded
#: no-op, so holding it costs one attribute slot and each hook one
#: boolean test.
NULL_TRACER = Tracer(enabled=False)


def resolve_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """The tracer a simulation should carry.

    An explicit instance wins; otherwise ``REPRO_TRACE`` decides
    between a fresh enabled tracer and the shared :data:`NULL_TRACER`.
    ``run_experiment`` always passes an instance (its ``RunFlags``
    already decided), so the variable is consulted only for a
    simulator built directly.
    """
    if tracer is not None:
        return tracer
    return Tracer() if trace_enabled() else NULL_TRACER


__all__ = [
    "NULL_TRACER", "NULL_TRACK", "TRACE_ENV", "TraceEvent", "TraceTrack",
    "Tracer", "resolve_tracer", "to_trace_us", "trace_enabled",
]
