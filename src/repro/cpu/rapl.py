"""Running Average Power Limit (RAPL) package energy counters.

The paper reads CPU-only power through the RAPL MSRs as a secondary
metric next to the wall meter (Section 6.1).  A :class:`RaplPackage`
groups the cores of one socket and exposes their summed energy.
"""

from __future__ import annotations

from typing import List, Sequence


class RaplPackage:
    """Energy accounting for one socket."""

    def __init__(self, package_id: int, cores: Sequence):
        if not cores:
            raise ValueError("a RAPL package needs at least one core")
        self.package_id = package_id
        self.cores: List = list(cores)

    def energy_joules(self, now: float) -> float:
        """Package energy consumed up to virtual time ``now`` (J).  The
        calibrated core curves already fold the uncore share (LLC,
        memory controller) into per-core idle power."""
        return sum(core.energy_at(now) for core in self.cores)
