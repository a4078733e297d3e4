"""Wall-socket power meter model (the Watts up? PRO of Section 6.1).

The meter reports one reading per second --- the mean power over the
elapsed second, i.e. the energy delta divided by the sampling interval
--- with a rated accuracy of +/-1.5% (``METER_NOISE_FRACTION``),
modelled as uniform multiplicative reading noise.  The paper averages
these one-second readings over the test phase; :meth:`average_power`
reproduces that, restricted to an arbitrary window so warmup/training
phases can be excluded.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.cpu.calibration import METER_NOISE_FRACTION
from repro.sim.engine import Event, Simulator


class PowerMeter:
    """Periodic sampler over an energy source.

    ``energy_fn()`` must return cumulative joules at the current
    simulation time (e.g. ``server.wall_energy``).
    """

    def __init__(self, sim: Simulator, energy_fn: Callable[[], float],
                 rng: random.Random, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        if rng is None:
            # An implicit Random(0) here once hid which seed a figure's
            # meter noise came from; the stream is now the caller's
            # explicit choice (usually streams.get("meter-noise")).
            raise TypeError("PowerMeter requires an explicit rng; pass "
                            "a seeded random.Random or an RNG stream")
        self.sim = sim
        self.energy_fn = energy_fn
        self.rng = rng
        self.interval = interval
        #: (sample_end_time, watts) readings.
        self.samples: List[Tuple[float, float]] = []
        self._last_energy = 0.0
        self._timer: Optional[Event] = None
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling at the meter's cadence."""
        if self._running:
            raise RuntimeError("meter already running")
        self._running = True
        self._last_energy = self.energy_fn()
        self._timer = self.sim.schedule(self.interval, self._sample,
                                        priority=10)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sample(self) -> None:
        if not self._running:
            return
        energy = self.energy_fn()
        true_watts = (energy - self._last_energy) / self.interval
        self._last_energy = energy
        error = self.rng.uniform(-METER_NOISE_FRACTION, METER_NOISE_FRACTION)
        self.samples.append((self.sim.now, true_watts * (1.0 + error)))
        self._timer = self.sim.schedule(self.interval, self._sample,
                                        priority=10)

    # ------------------------------------------------------------------
    def average_power(self, start: Optional[float] = None,
                      end: Optional[float] = None) -> float:
        """Mean of the readings whose sample window ends in (start, end]."""
        window = [w for t, w in self.samples
                  if (start is None or t > start)
                  and (end is None or t <= end + 1e-9)]
        if not window:
            raise ValueError("no meter samples in the requested window")
        return sum(window) / len(window)

    def readings_in(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Raw (time, watts) readings within a window."""
        return [(t, w) for t, w in self.samples
                if start < t <= end + 1e-9]

    def binned_average(self, start: float, end: float,
                       bin_seconds: float) -> List[Tuple[float, float]]:
        """Average readings into coarser bins (Figure 10(a) uses 5 s)."""
        if bin_seconds <= 0:
            raise ValueError("bin size must be positive")
        bins: dict = {}
        for t, w in self.readings_in(start, end):
            index = int((t - start - 1e-9) / bin_seconds)
            bins.setdefault(index, []).append(w)
        return [(start + (i + 0.5) * bin_seconds,
                 sum(vals) / len(vals))
                for i, vals in sorted(bins.items())]
