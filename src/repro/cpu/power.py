"""Core and server power models.

See :mod:`repro.cpu.calibration` for the calibration story.  The models
here are deliberately simple lookups --- the *integration* of power over
time happens inside :class:`repro.cpu.core.Core` (exact, per state
segment) and :class:`repro.metrics.power.PowerMeter` (sampled, with
meter noise), mirroring how the paper separates the physical power draw
from the Watts up? meter that observes it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.cpu import calibration


class CorePowerModel:
    """Maps a core's (frequency, busy/idle) state to instantaneous watts.

    By default the calibrated curves from :mod:`repro.cpu.calibration`
    are used; custom callables may be supplied for sensitivity studies
    (e.g. the ablation bench that flattens the idle curve).
    """

    def __init__(self,
                 active_fn: Optional[Callable[[float], float]] = None,
                 idle_fn: Optional[Callable[[float], float]] = None):
        self._active_fn = active_fn or calibration.active_watts
        self._idle_fn = idle_fn or calibration.idle_watts
        self._active_cache: Dict[float, float] = {}
        self._idle_cache: Dict[float, float] = {}

    def active_power(self, freq_ghz: float) -> float:
        """Draw of a core executing a transaction at ``freq_ghz`` (W)."""
        watts = self._active_cache.get(freq_ghz)
        if watts is None:
            watts = self._active_fn(freq_ghz)
            self._active_cache[freq_ghz] = watts
        return watts

    def idle_power(self, freq_ghz: float) -> float:
        """Draw of an idle core whose operating point is ``freq_ghz`` (W)."""
        watts = self._idle_cache.get(freq_ghz)
        if watts is None:
            watts = self._idle_fn(freq_ghz)
            self._idle_cache[freq_ghz] = watts
        return watts


class ServerPowerModel:
    """Whole-server wall power: a static floor plus the sum of core draws.

    ``wall_power(cores)`` gives the *instantaneous* draw; energy
    integration is done by the callers that track time.
    """

    def __init__(self, static_watts: float = calibration.STATIC_WATTS):
        if static_watts < 0:
            raise ValueError("static watts cannot be negative")
        self.static_watts = static_watts

    def wall_power(self, cores: Iterable) -> float:
        """Instantaneous wall draw given the cores' current states (W)."""
        return self.static_watts + sum(c.current_power() for c in cores)

    def wall_energy(self, cores: Iterable, now: float) -> float:
        """Total wall energy consumed up to virtual time ``now`` (J).

        Cores integrate their own energy exactly; the static floor
        contributes ``static_watts * now``.
        """
        return self.static_watts * now + sum(c.energy_at(now) for c in cores)
