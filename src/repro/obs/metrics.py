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

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import NULL_TRACER, Tracer


class Counter:
    """A monotonically increasing count (completions, misses, rejects)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def sample(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value; either set explicitly or read lazily.

    Pass ``fn`` to bind the gauge to a live accessor (queue depth,
    core frequency): each sample calls it, so the registry never holds
    stale copies of simulation state.
    """

    __slots__ = ("name", "help", "fn", "value")

    def __init__(self, name: str, help: str = "",
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help
        self.fn = fn
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def sample(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self.value


class Histogram:
    """Cumulative bucket counts plus sum/count (latency distributions)."""

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "total")

    #: Default latency buckets, in seconds (sub-ms to multi-second).
    DEFAULT_BOUNDS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                      0.25, 0.5, 1.0, 2.5)

    def __init__(self, name: str, help: str = "",
                 bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def sample(self) -> float:
        """Histograms sample as their running mean (series-friendly)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count



class MetricRegistry:
    """Named instruments, registered once and iterated in name order."""

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _register(self, metric):
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._register(Gauge(name, help, fn))

    def histogram(self, name: str, help: str = "",
                  bounds: Sequence[float] = Histogram.DEFAULT_BOUNDS
                  ) -> Histogram:
        return self._register(Histogram(name, help, bounds))

    def get(self, name: str):
        return self._metrics[name]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def sample_all(self) -> List[Tuple[str, float]]:
        """One (name, value) snapshot per instrument, name-sorted."""
        metrics = self._metrics
        return [(name, metrics[name].sample()) for name in sorted(metrics)]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


class MetricsSampler:
    """Snapshots a registry on a fixed virtual-time cadence.

    Schedules itself on the simulator like ``PowerMeter``: ``start()``
    plants the first sample, each sample re-plants the next.  The
    harness drain loop checks ``sim.idle`` before ``sim.step()``, so a
    pending sampler event never keeps a finished run alive --- it is
    simply left cancelled/unfired when the loop exits.
    """

    __slots__ = ("sim", "registry", "interval_s", "tracer", "series",
                 "_event", "_track")

    def __init__(self, sim, registry: MetricRegistry,
                 interval_s: float = 0.25,
                 tracer: Optional[Tracer] = None):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.sim = sim
        self.registry = registry
        self.interval_s = float(interval_s)
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
        now_s = self.sim.now
        tracer = self.tracer
        for name, value in self.registry.sample_all():
            self.series.setdefault(name, []).append((now_s, value))
            if tracer.enabled:
                tracer.counter(self.tracer.track("metrics", name),
                               name, now_s, value=value)
        self._event = self.sim.schedule(self.interval_s, self._sample)

    def sample_once(self) -> None:
        """One extra snapshot at the current time (end-of-run capture)."""
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
