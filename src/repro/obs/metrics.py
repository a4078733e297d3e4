"""Time-series metrics sampled on virtual time.

A run's gauges are a ``name -> callable`` dict (each plant's
``gauges()``): every callable reads live simulation state --- queue
depth, core frequency, wall power, a count or mean kept by a
completion listener --- so nothing holds a stale copy of it.  A
:class:`MetricsSampler`, a self-rescheduling simulation event (the
``PowerMeter`` pattern), samples the dict in name order into in-memory
time series and mirrors each sample onto the tracer as a Chrome
counter track.

Like the tracer, everything runs on the virtual clock: two same-seed
runs produce identical series, and the sampler never outlives the
drain loop because the harness checks for idle *before* stepping.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import Event

#: The sampler's cadence (virtual seconds).
SAMPLE_INTERVAL_S = 0.25


class MetricsSampler:
    """Samples ``gauges`` every ``SAMPLE_INTERVAL_S`` of virtual time.

    Schedules itself on the simulator like ``PowerMeter``: ``start()``
    plants the first sample, each sample re-plants the next.  The
    harness drain loop stops stepping once every worker is idle with
    an empty queue, so a pending sampler event never keeps a finished
    run alive --- the harness cancels it with :meth:`stop`.
    """

    __slots__ = ("sim", "gauges", "tracer", "series", "_event")

    def __init__(self, sim, gauges: Dict[str, Callable[[], float]],
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        #: metric name -> live accessor, in name order.
        self.gauges = dict(sorted(gauges.items()))
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: metric name -> list of (t_s, value) samples.
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        self._event = None

    def start(self) -> None:
        """Take the t=now sample and begin the cadence."""
        self._sample()

    def stop(self) -> None:
        """Cancel the pending sample, if any."""
        if self._event is not None:
            Event.cancel(self._event)
            self._event = None

    def _sample(self) -> None:
        self.sample_once()
        self._event = self.sim.schedule(SAMPLE_INTERVAL_S, self._sample)

    def sample_once(self) -> None:
        """One snapshot at the current time; a series already sampled
        at this instant keeps its point (the end-of-run capture may
        land on a cadence tick)."""
        now_s = self.sim.now
        tracer = self.tracer
        values = [(name, float(fn())) for name, fn in self.gauges.items()]
        for name, value in values:
            points = self.series.setdefault(name, [])
            if points and abs(points[-1][0] - now_s) < 1e-12:
                continue
            points.append((now_s, value))
            if tracer.enabled:
                tracer.counter(tracer.track("metrics", name), name, now_s,
                               value=value)


__all__ = ["MetricsSampler"]
