"""The Linux ``ondemand`` dynamic governor.

Decision rule (faithful to ``drivers/cpufreq/cpufreq_ondemand.c`` of the
paper-era kernels):

* if the sampled load *strictly exceeds* ``UP_THRESHOLD`` (the kernel
  default 95%; kernel test ``load > up_threshold`` — equality takes the
  proportional path), jump straight to the maximum frequency;
* otherwise set ``freq_next = utilization * max_freq`` — the kernel's
  ``load * max_freq / 100`` with percent load rewritten for our
  fractional (0..1) utilization — and map it onto the grid with
  relation *L* (lowest grid frequency at or above the target).

The paper characterizes OnDemand as the governor that "adjusts core
frequencies more aggressively to save power" (Section 6.2): under
partial load it repeatedly scales down proportionally, saving power at
the cost of more missed latency targets when slack is tight.
"""

from __future__ import annotations

from typing import Optional

from repro.governors.base import DynamicGovernor

#: Kernel default for ondemand's up_threshold (percent).
UP_THRESHOLD = 95.0


class OnDemandGovernor(DynamicGovernor):
    """Proportional scale-down with jump-to-max above ``UP_THRESHOLD``."""

    name = "ondemand"

    def target_frequency(self, utilization: float) -> Optional[float]:
        assert self.core is not None
        table = self.core.pstates
        # Strictly greater, matching cpufreq_ondemand.c's
        # ``if (load > od_tuners->up_threshold)``: a load exactly at the
        # threshold takes the proportional path below.
        if utilization * 100.0 > UP_THRESHOLD:
            return table.max_freq
        # freq_next = utilization * max_freq (the kernel computes
        # load * max_freq / 100 with load in percent), relation L.
        target = utilization * table.max_freq
        return table.nearest_at_least(max(target, table.min_freq))

    def trace_args(self) -> dict:
        return {"up_threshold": UP_THRESHOLD}
