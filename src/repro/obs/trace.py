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

A *track* is the ``(pid, tid)`` pair of small integer ids that a
(process, thread) name pair is given in registration order, so ids
--- like every timestamp --- are a pure function of the simulation
and traces are byte-identical across same-seed runs.  Each recording
method appends the Chrome record itself (``ph``, ``ts``, ``pid``,
``tid``, ``name``, plus ``cat``/``id``/``s``/``args`` where they
apply), so the exporter writes :attr:`Tracer.events` as recorded.
Timestamps are virtual-clock seconds converted to the format's
mandatory integer microseconds (``ts``; DESIGN.md §5, decision 14).
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


#: A track is its ``(pid, tid)`` pair.
Track = Tuple[int, int]

#: What :meth:`Tracer.track` returns while tracing is disabled; never
#: recorded, exists so callers can register tracks unconditionally.
NULL_TRACK: Track = (0, 0)


class Tracer:
    """Collects Chrome trace-event records on the virtual clock.

    ``Tracer()`` is enabled; the shared :data:`NULL_TRACER` is the
    disabled instance every un-traced simulation holds.  All recording
    methods take the current virtual time in seconds (``now_s``) ---
    the tracer never reads a clock itself.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        #: Chrome trace-event records, in recording (virtual-time) order.
        self.events: List[Dict[str, object]] = []
        #: (process, thread) names -> track, in registration order.
        self.tracks: Dict[Tuple[str, str], Track] = {}
        #: process name -> (pid, threads registered so far).
        self._processes: Dict[str, Tuple[int, int]] = {}
        #: arbitrary caller keys -> dense run-local async ids, so traces
        #: do not depend on process-global counters (Request ids keep
        #: counting across runs; local ids restart at 1 every run).
        self._async_keys: Dict[Hashable, int] = {}
        #: async spans begun but not yet ended: (cat, id) -> name.
        self._open_async: Dict[Tuple[str, int], str] = {}
        #: per-track stack of open B spans (names), for finalize().
        self._open_spans: Dict[Track, List[str]] = {}

    # ------------------------------------------------------------------
    # Track registry
    # ------------------------------------------------------------------
    def track(self, process: str, thread: str) -> Track:
        """The (deduplicated) track for a process/thread name pair."""
        if not self.enabled:
            return NULL_TRACK
        track = self.tracks.get((process, thread))
        if track is None:
            pid, threads = self._processes.get(
                process, (len(self._processes) + 1, 0))
            self._processes[process] = (pid, threads + 1)
            track = self.tracks[(process, thread)] = (pid, threads + 1)
        return track

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
    def _record(self, ph: str, track: Track, name: str, now_s: float,
                args: Dict[str, object], **fields: object) -> None:
        record = {"ph": ph, "ts": to_trace_us(now_s), "pid": track[0],
                  "tid": track[1], "name": name, **fields}
        if args:
            record["args"] = args
        self.events.append(record)

    def begin(self, track: Track, name: str, now_s: float,
              **args: object) -> None:
        """Open a synchronous span on ``track`` (Chrome ``B``)."""
        if not self.enabled:
            return
        self._record("B", track, name, now_s, args)
        self._open_spans.setdefault(track, []).append(name)

    def end(self, track: Track, now_s: float, **args: object) -> None:
        """Close the innermost open span on ``track`` (Chrome ``E``)."""
        if not self.enabled:
            return
        stack = self._open_spans.get(track)
        self._record("E", track, stack.pop() if stack else "span", now_s,
                     args)

    def instant(self, track: Track, name: str, now_s: float,
                **args: object) -> None:
        """A thread-scoped zero-duration marker on ``track`` (Chrome
        ``i``)."""
        if not self.enabled:
            return
        self._record("i", track, name, now_s, args, s="t")

    def counter(self, track: Track, name: str, now_s: float,
                **values: float) -> None:
        """A counter sample on ``track`` (Chrome ``C``)."""
        if not self.enabled:
            return
        self._record("C", track, name, now_s, values)

    def _async(self, ph: str, cat: str, key: Hashable, name: str,
               now_s: float, args: Dict[str, object]) -> int:
        aid = self.async_id(key)
        self._record(ph, self.track(cat, cat), name, now_s, args, cat=cat,
                     id=aid)
        return aid

    def async_begin(self, cat: str, key: Hashable, name: str, now_s: float,
                    **args: object) -> None:
        """Open an async span identified by ``(cat, key)`` (Chrome ``b``)."""
        if not self.enabled:
            return
        aid = self._async("b", cat, key, name, now_s, args)
        self._open_async[(cat, aid)] = name

    def async_instant(self, cat: str, key: Hashable, name: str,
                      now_s: float, **args: object) -> None:
        """A step marker inside an open async span (Chrome ``n``)."""
        if not self.enabled:
            return
        self._async("n", cat, key, name, now_s, args)

    def async_end(self, cat: str, key: Hashable, name: str, now_s: float,
                  **args: object) -> None:
        """Close the async span identified by ``(cat, key)`` (Chrome ``e``)."""
        if not self.enabled:
            return
        aid = self._async("e", cat, key, name, now_s, args)
        self._open_async.pop((cat, aid), None)

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
        for track, stack in sorted(self._open_spans.items()):
            while stack:
                self._record("E", track, stack.pop(), now_s,
                             {"truncated": True})
                closed += 1
        for (cat, aid), name in sorted(self._open_async.items()):
            self._record("e", self.track(cat, cat), name, now_s,
                         {"truncated": True}, cat=cat, id=aid)
            closed += 1
        self._open_async.clear()
        return closed


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
    "NULL_TRACER", "NULL_TRACK", "TRACE_ENV", "Track", "Tracer",
    "resolve_tracer", "to_trace_us", "trace_enabled",
]
