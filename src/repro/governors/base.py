"""Governor interfaces and the utilization-sampling loop.

Mirrors the structure of the Linux ``cpufreq`` core: a governor is
attached to one core ("policy"), static governors act once, dynamic
governors re-evaluate every ``SAMPLING_PERIOD_S`` based on the busy
fraction of the elapsed window.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cpu.core import Core
from repro.obs.trace import NULL_TRACER, NULL_TRACK
from repro.sim.engine import Event, Simulator

#: Linux's default sampling interval on the paper's kernel era was
#: ``sampling_rate = 10000`` microseconds for both dynamic governors.
SAMPLING_PERIOD_S = 0.010


class Governor:
    """A frequency-control policy for one core."""

    name = "governor"

    def __init__(self):
        self.core: Optional[Core] = None
        self.sim: Optional[Simulator] = None
        self.tracer = NULL_TRACER
        self.trace_track = NULL_TRACK

    def attach(self, core: Core, sim: Simulator) -> None:
        """Take control of ``core``; static policies act immediately."""
        self.core = core
        self.sim = sim
        #: repro.obs: governors record on their core's track, so a
        #: governor decision and the P-state transition it caused land
        #: on the same Perfetto row.
        self.tracer = sim.tracer
        self.trace_track = core.trace_track
        self.on_attach()

    def detach(self) -> None:
        """Release the core (stops any sampling)."""
        self.on_detach()
        self.core = None
        self.sim = None

    # Hooks -------------------------------------------------------------
    def on_attach(self) -> None:
        """Called once when attached; override in subclasses."""

    def on_detach(self) -> None:
        """Called when detached; override to cancel timers."""

    def trace_args(self) -> dict:
        """Extra per-policy fields for this governor's trace instants.

        Overridden by governors with tunables worth seeing next to each
        decision (ondemand's threshold, conservative's requested
        frequency); the base contributes nothing.
        """
        return {}

    def _trace_pin(self, freq_ghz: float) -> None:
        """Record a static governor pinning its core at ``freq_ghz``."""
        if self.tracer.enabled:
            assert self.sim is not None
            self.tracer.instant(self.trace_track,
                                f"governor:{self.name}:pin",
                                self.sim.now, pinned_ghz=freq_ghz)


class DynamicGovernor(Governor):
    """Base for utilization-driven governors.

    Subclasses implement :meth:`target_frequency` mapping the sampled
    utilization (busy fraction in [0, 1] over the last window) to a
    frequency on the core's grid.
    """

    def __init__(self):
        super().__init__()
        self._timer: Optional[Event] = None
        self._last_sample_time_s = 0.0
        self._last_busy = 0.0
        self.samples_taken = 0

    def on_attach(self) -> None:
        assert self.sim is not None and self.core is not None
        self._last_sample_time_s = self.sim.now
        self._last_busy = self.core.busy_seconds_at(self.sim.now)
        self._timer = self.sim.schedule(SAMPLING_PERIOD_S, self._sample)

    def on_detach(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sample(self) -> None:
        assert self.sim is not None and self.core is not None
        now = self.sim.now
        busy = self.core.busy_seconds_at(now)
        window = now - self._last_sample_time_s
        utilization = 0.0
        if window > 0:
            utilization = min(1.0, (busy - self._last_busy) / window)
        self._last_sample_time_s = now
        self._last_busy = busy
        self.samples_taken += 1

        target = self.target_frequency(utilization)
        if self.tracer.enabled:
            self.tracer.instant(
                self.trace_track, f"governor:{self.name}", now,
                utilization=round(utilization, 6),
                target_ghz=target if target is not None else self.core.freq,
                **self.trace_args())
        if target is not None:
            if self.core.domain is not None:
                # Shared frequency domain: always re-file the vote.  The
                # core may be riding a sibling's higher vote, so "target
                # equals current frequency" does not mean "nothing to
                # say" --- skipping would leave a stale vote pinning the
                # whole domain high after the sibling steps down.
                self.core.request_frequency(target)
            elif abs(target - self.core.freq) > 1e-12:
                self.core.set_frequency(target)
        self._timer = self.sim.schedule(SAMPLING_PERIOD_S, self._sample)

    def target_frequency(self, utilization: float) -> Optional[float]:
        """Map the last window's utilization to a grid frequency.

        Return ``None`` to keep the current frequency.
        """
        raise NotImplementedError


class GovernorSet:
    """One governor instance per core, built from a factory.

    Mirrors how Linux instantiates a governor per cpufreq policy.
    """

    def __init__(self, factory: Callable[[], Governor]):
        self._factory = factory
        self.governors: List[Governor] = []

    def attach_all(self, cores: Sequence[Core], sim: Simulator) -> None:
        if self.governors:
            raise RuntimeError("governor set already attached")
        for core in cores:
            governor = self._factory()
            governor.attach(core, sim)
            self.governors.append(governor)

    def detach_all(self) -> None:
        for governor in self.governors:
            governor.detach()
        self.governors.clear()
