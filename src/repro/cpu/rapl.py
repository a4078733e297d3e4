"""Running Average Power Limit (RAPL) package energy counters.

The paper reads CPU-only power through the RAPL MSRs as a secondary
metric next to the wall meter (Section 6.1).  A :class:`RaplPackage`
groups the cores of one socket and exposes their summed energy.
"""

from __future__ import annotations

from typing import List, Sequence


class RaplPackage:
    """Energy accounting for one socket."""

    def __init__(self, package_id: int, cores: Sequence,
                 uncore_watts: float = 0.0):
        if not cores:
            raise ValueError("a RAPL package needs at least one core")
        self.package_id = package_id
        self.cores: List = list(cores)
        #: Constant uncore draw attributed to the package (LLC, memory
        #: controller).  Kept at zero by default; the calibrated core
        #: curves already fold uncore share into per-core idle power.
        self.uncore_watts = uncore_watts

    def energy_joules(self, now: float) -> float:
        """Package energy consumed up to virtual time ``now`` (J)."""
        return self.uncore_watts * now + \
            sum(core.energy_at(now) for core in self.cores)

    def power_watts(self) -> float:
        """Instantaneous package draw (W)."""
        return self.uncore_watts + \
            sum(core.current_power() for core in self.cores)

    def average_power(self, t0: float, e0: float, t1: float) -> float:
        """Mean power over ``[t0, t1]`` given the energy reading ``e0`` at
        ``t0`` (how RAPL consumers compute power from the counter)."""
        if t1 <= t0:
            raise ValueError("interval must have positive length")
        return (self.energy_joules(t1) - e0) / (t1 - t0)
