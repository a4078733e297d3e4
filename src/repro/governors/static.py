"""Static governors: pin a core at a fixed frequency.

The paper's "2.8 GHz" and "2.4 GHz" baselines set all cores to a fixed
frequency through the MSRs with ACPI software control disabled
(Section 6.1).  ``userspace`` accepts an arbitrary grid frequency, which
is how the fixed-frequency baselines are expressed.
"""

from __future__ import annotations

from repro.governors.base import Governor


class UserspaceGovernor(Governor):
    """Pin the core at a caller-chosen frequency (``scaling_setspeed``)."""

    def __init__(self, freq_ghz: float):
        super().__init__()
        self.freq_ghz = freq_ghz
        self.name = f"userspace-{freq_ghz:g}GHz"

    def on_attach(self) -> None:
        assert self.core is not None
        if self.freq_ghz not in self.core.pstates:
            raise ValueError(
                f"{self.freq_ghz} GHz not on core's P-state grid")
        self._trace_pin(self.freq_ghz)
        self.core.request_frequency(self.freq_ghz)
