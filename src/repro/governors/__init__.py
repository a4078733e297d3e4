"""OS frequency governors --- the paper's baselines.

Reimplementations of the Linux ``cpufreq`` governors the paper compares
POLARIS against (Section 6.1):

* the static governor that pins a core at a fixed frequency (the
  "2.8 GHz" and "2.4 GHz" baselines);
* the **OnDemand** dynamic governor: jump to the maximum frequency when
  utilization exceeds ``UP_THRESHOLD``, otherwise scale the frequency
  proportionally to utilization;
* the **Conservative** dynamic governor: step the frequency gradually up
  or down when utilization crosses its thresholds.

All dynamic governors are *deadline-blind*: they see only per-core busy
time, sampled every ``SAMPLING_PERIOD_S`` --- exactly the information
asymmetry versus POLARIS that the paper is about.

Nothing is re-exported here, so a run loads only the modules it uses:
import from the submodule (``from repro.governors.ondemand import
OnDemandGovernor``).
"""
