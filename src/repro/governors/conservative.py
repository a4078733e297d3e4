"""The Linux ``conservative`` dynamic governor.

Decision rule (faithful to ``drivers/cpufreq/cpufreq_conservative.c``):

* keep an internal ``requested_freq``;
* if the sampled load exceeds ``UP_THRESHOLD`` (the kernel default
  80%), raise ``requested_freq`` by ``FREQ_STEP_PERCENT`` (5% of max
  frequency);
* if the load falls below ``DOWN_THRESHOLD`` (20%), lower it by the
  same step;
* between the thresholds, leave the frequency alone.

That dead zone is why the paper observes Conservative "rarely lowers
frequency below 2.8 GHz" at medium load (utilization sits between the
thresholds, so the governor never moves off its starting point) yet
drifts all the way down --- saving as much power as POLARIS but missing
deadlines --- at low load, where enough sampling windows dip under the
down threshold (Section 6.3).
"""

from __future__ import annotations

from typing import Optional

from repro.governors.base import DynamicGovernor

#: Kernel defaults for conservative's thresholds (percent load).
UP_THRESHOLD = 80.0
DOWN_THRESHOLD = 20.0
#: Kernel default freq_step is 5 (percent of max frequency).
FREQ_STEP_PERCENT = 5.0


class ConservativeGovernor(DynamicGovernor):
    """Gradual stepping between utilization thresholds."""

    name = "conservative"

    def __init__(self):
        super().__init__()
        self._requested: Optional[float] = None

    def on_attach(self) -> None:
        assert self.core is not None
        self._requested = self.core.freq
        super().on_attach()

    def target_frequency(self, utilization: float) -> Optional[float]:
        assert self.core is not None
        table = self.core.pstates
        if self._requested is None:
            self._requested = self.core.freq
        step = FREQ_STEP_PERCENT / 100.0 * table.max_freq
        load = utilization * 100.0
        if load > UP_THRESHOLD:
            # Raising: lowest grid frequency at or above the request,
            # so the step is always honored in the safe direction.
            self._requested = min(self._requested + step, table.max_freq)
            return table.nearest_at_least(self._requested)
        if load < DOWN_THRESHOLD:
            # Lowering: highest grid frequency at or below the request.
            # Rounding a *decrease* upward would overstate the applied
            # frequency by up to one P-state on coarse grids (the
            # 5-level POLARIS table has 0.4 GHz gaps) and hold the core
            # above what the governor decided --- on the paper's grid
            # the old at-least rounding kept every down step pinned one
            # level high until ``_requested`` crossed the next boundary.
            self._requested = max(self._requested - step, table.min_freq)
            return table.nearest_at_most(self._requested)
        return None

    def trace_args(self) -> dict:
        return {"requested_ghz": self._requested}
