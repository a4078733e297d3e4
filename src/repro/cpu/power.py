"""Core and server power models.

See :mod:`repro.cpu.calibration` for the calibration story.  The models
here are deliberately simple lookups --- the *integration* of power over
time happens inside :class:`repro.cpu.core.Core` (exact, per state
segment) and :class:`repro.metrics.power.PowerMeter` (sampled, with
meter noise), mirroring how the paper separates the physical power draw
from the Watts up? meter that observes it.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.cpu import calibration


class CorePowerModel:
    """Maps a core's (frequency, busy/idle) state to instantaneous watts.

    The curves are :mod:`repro.cpu.calibration`'s, memoized per
    frequency.
    """

    def __init__(self):
        self._active_cache: Dict[float, float] = {}
        self._idle_cache: Dict[float, float] = {}

    def active_power(self, freq_ghz: float) -> float:
        """Draw of a core executing a transaction at ``freq_ghz`` (W)."""
        watts = self._active_cache.get(freq_ghz)
        if watts is None:
            watts = calibration.active_watts(freq_ghz)
            self._active_cache[freq_ghz] = watts
        return watts

    def idle_power(self, freq_ghz: float) -> float:
        """Draw of an idle core whose operating point is ``freq_ghz`` (W)."""
        watts = self._idle_cache.get(freq_ghz)
        if watts is None:
            watts = calibration.idle_watts(freq_ghz)
            self._idle_cache[freq_ghz] = watts
        return watts


class ServerPowerModel:
    """Whole-server wall power: the static floor
    (``calibration.STATIC_WATTS``) plus the sum of core draws.

    ``wall_power(cores)`` gives the *instantaneous* draw; energy
    integration is done by the callers that track time.
    """

    def wall_power(self, cores: Iterable) -> float:
        """Instantaneous wall draw given the cores' current states (W)."""
        return calibration.STATIC_WATTS \
            + sum(c.current_power() for c in cores)

    def wall_energy(self, cores: Iterable, now: float) -> float:
        """Total wall energy consumed up to virtual time ``now`` (J).

        Cores integrate their own energy exactly; the static floor
        contributes ``STATIC_WATTS * now``.
        """
        return calibration.STATIC_WATTS * now \
            + sum(c.energy_at(now) for c in cores)
