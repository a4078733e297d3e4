"""Open-loop request generation.

The paper changes Shore-Kits from closed-loop to open-loop so a mean
offered load can be specified per experiment: "Request interarrival
delays are chosen randomly from a uniform distribution with the mean
determined by the target request rate, a minimum of zero, and a maximum
of twice the mean.  Thus, the actual instantaneous request rate
fluctuates randomly around the target." (Section 6.1).

:class:`OpenLoopGenerator` reproduces exactly that: interarrival times
``~ Uniform(0, 2/rate)``.  The rate may be constant or time-varying via
a :class:`RateSchedule` (used by the World Cup trace experiment, which
"sets a new target rate every second", Section 6.4).
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

from repro.sim.engine import Simulator


class RateSchedule:
    """Piecewise-constant target request rate.

    ``rates[i]`` applies during ``[i * step, (i+1) * step)``; beyond the
    end of the list the last rate persists.
    """

    def __init__(self, rates: Sequence[float], step_seconds: float = 1.0):
        if not rates:
            raise ValueError("rate schedule cannot be empty")
        if any(r < 0 for r in rates):
            raise ValueError("rates cannot be negative")
        if step_seconds <= 0:
            raise ValueError("step must be positive")
        self.rates: List[float] = list(rates)
        self.step_seconds = step_seconds

    def rate_at(self, now: float) -> float:
        index = int(now / self.step_seconds)
        if index < 0:
            index = 0
        if index >= len(self.rates):
            index = len(self.rates) - 1
        return self.rates[index]

    @property
    def duration(self) -> float:
        return len(self.rates) * self.step_seconds


class OpenLoopGenerator:
    """Generates request arrivals at a (possibly time-varying) target rate.

    ``on_arrival(now)`` is called at each arrival instant; the callback
    builds and routes the actual request (see the server layer).  The
    generator is started with :meth:`start` and stops on :meth:`stop`
    or when the simulator's run window ends.
    """

    __slots__ = ("sim", "_rate", "_on_arrival", "_rng", "_random",
                 "_schedule", "_running", "generated")

    def __init__(self, sim: Simulator, rate: Callable[[float], float],
                 on_arrival: Callable[[float], None], rng: random.Random):
        self.sim = sim
        self._rate = rate
        self._on_arrival = on_arrival
        self._rng = rng
        #: Hot-path bindings: one arrival costs one unit draw and one
        #: schedule; binding the methods here keeps :meth:`_fire` free
        #: of attribute chains.
        self._random = rng.random
        self._schedule = sim.schedule
        self._running = False
        self.generated = 0

    @classmethod
    def constant(cls, sim: Simulator, rate: float,
                 on_arrival: Callable[[float], None],
                 rng: random.Random) -> "OpenLoopGenerator":
        """Generator with a fixed target rate (requests/second)."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        return cls(sim, lambda _now: rate, on_arrival, rng)

    # ------------------------------------------------------------------
    def start(self, delay: float = 0.0) -> None:
        if self._running:
            raise RuntimeError("generator already running")
        self._running = True
        self.sim.schedule(delay + self._next_gap(), self._fire)

    def stop(self) -> None:
        self._running = False

    def _next_gap(self) -> float:
        """Uniform(0, 2/rate) interarrival; a short poll when the rate
        is zero.

        The draw is a *unit* draw scaled at fire time:
        ``uniform(0, 2/rate)`` is ``(2/rate) * random()`` exactly (the
        stdlib computes ``a + (b - a) * random()`` with ``a = 0``), so
        the sequence is bit-identical whether the stream is batched or
        plain and whatever the instantaneous rate is.
        """
        rate = self._rate(self.sim.now)
        if rate <= 0:
            # Zero-rate stretch: poll again shortly rather than dying.
            return 0.05
        return (2.0 / rate) * self._random()

    def _fire(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        rate = self._rate(now)
        if rate > 0:
            self.generated += 1
            self._on_arrival(now)
            gap = (2.0 / rate) * self._random()
        else:
            gap = 0.05
        self._schedule(gap, self._fire)
