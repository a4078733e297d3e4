"""Prometheus-style metric primitives sampled on virtual time.

A :class:`MetricRegistry` owns named :class:`Counter`/:class:`Gauge`/
:class:`Histogram` instruments.  Instruments are updated by the code
under test (worker completion hooks, the power meter) and *sampled*
periodically by a :class:`MetricsSampler`, a self-rescheduling
simulation event (the ``PowerMeter`` pattern) that snapshots every
instrument into in-memory time series and mirrors each sample onto the
tracer as a Chrome counter track.

Like the tracer, everything runs on the virtual clock: two same-seed
runs produce identical series, and the sampler never outlives the
drain loop because the harness checks for idle *before* stepping.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.trace import NULL_TRACER, Tracer

#: The sampler's cadence (virtual seconds).
SAMPLE_INTERVAL_S = 0.25


class Counter:
    """A monotonically increasing count (deadline misses)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self) -> None:
        self.value += 1.0

    def sample(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value read lazily through ``fn``.

    The gauge is bound to a live accessor (queue depth, core
    frequency): each sample calls it, so the registry never holds stale
    copies of simulation state.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self.fn = fn

    def sample(self) -> float:
        return float(self.fn())


class Histogram:
    """Count and sum of observations (latency distributions)."""

    __slots__ = ("name", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value

    def sample(self) -> float:
        """Histograms sample as their running mean (series-friendly)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


class MetricRegistry:
    """Named instruments, registered once and sampled in name order."""

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _register(self, metric):
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._register(Counter(name))

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        return self._register(Gauge(name, fn))

    def histogram(self, name: str) -> Histogram:
        return self._register(Histogram(name))

    def sample_all(self) -> List[Tuple[str, float]]:
        """One (name, value) snapshot per instrument, name-sorted."""
        metrics = self._metrics
        return [(name, metrics[name].sample()) for name in sorted(metrics)]


class MetricsSampler:
    """Snapshots a registry every ``SAMPLE_INTERVAL_S`` of virtual time.

    Schedules itself on the simulator like ``PowerMeter``: ``start()``
    plants the first sample, each sample re-plants the next.  The
    harness drain loop stops stepping once every worker is idle with
    an empty queue, so a pending sampler event never keeps a finished
    run alive --- the harness cancels it with :meth:`stop`.
    """

    __slots__ = ("sim", "registry", "tracer", "series", "_event", "_track")

    def __init__(self, sim, registry: MetricRegistry,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: metric name -> list of (t_s, value) samples.
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        self._event = None
        self._track = self.tracer.track("metrics", "sampler")

    def start(self) -> None:
        """Take the t=now sample and begin the cadence."""
        self._sample()

    def stop(self) -> None:
        """Cancel the pending sample, if any."""
        if self._event is not None:
            self._event.cancel()
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
        for name, value in self.registry.sample_all():
            points = self.series.setdefault(name, [])
            if points and abs(points[-1][0] - now_s) < 1e-12:
                continue
            points.append((now_s, value))
            if tracer.enabled:
                tracer.counter(self.tracer.track("metrics", name),
                               name, now_s, value=value)


__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry",
           "MetricsSampler"]
