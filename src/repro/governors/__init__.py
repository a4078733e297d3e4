"""OS frequency governors --- the paper's baselines.

Reimplementations of the Linux ``cpufreq`` governors the paper compares
POLARIS against (Section 6.1):

* the static governor that pins a core at a fixed frequency (the
  "2.8 GHz" and "2.4 GHz" baselines);
* the **OnDemand** dynamic governor: jump to the maximum frequency when
  utilization exceeds ``up_threshold``, otherwise scale the frequency
  proportionally to utilization;
* the **Conservative** dynamic governor: step the frequency gradually up
  or down when utilization crosses its thresholds.

All dynamic governors are *deadline-blind*: they see only per-core busy
time, sampled every ``sampling_period_s`` --- exactly the information
asymmetry versus POLARIS that the paper is about.
"""

from repro.governors.base import Governor, DynamicGovernor, GovernorSet
from repro.governors.static import UserspaceGovernor
from repro.governors.ondemand import OnDemandGovernor
from repro.governors.conservative import ConservativeGovernor
from repro.governors.nonclairvoyant import NonclairvoyantScheduler

__all__ = [
    "Governor", "DynamicGovernor", "GovernorSet", "UserspaceGovernor",
    "OnDemandGovernor", "ConservativeGovernor",
    "NonclairvoyantScheduler",
]
