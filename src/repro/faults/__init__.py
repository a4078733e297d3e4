"""repro.faults: deterministic fault injection + graceful degradation.

The simulator's chaos layer.  A :class:`FaultPlan` declares what breaks
and when (DVFS write failures, thermal-throttle envelopes, core stalls,
arrival bursts, estimator misprediction); a :class:`FaultInjector`
schedules it on the virtual clock; a :class:`ResilienceController` arms
the server's degraded modes (bounded DVFS retry, a stalled-core
watchdog with queue migration, admission-control shedding, and a
hysteretic POLARIS panic mode).

Enable contract, matching simsan (``REPRO_SIMSAN``) and tracing
(``REPRO_TRACE``):

* ``REPRO_FAULTS=dying-core`` (a scenario name, ``+``-composable) or
  ``REPRO_FAULTS=/path/plan.json`` applies a plan to every experiment;
* ``ExperimentConfig(faults=FaultPlan(...))`` --- or a scenario
  name / JSON path --- configures one cell explicitly.

Determinism: same seed + same plan -> byte-identical results;
``faults=None`` (no env) is bit-identical to a build without this
package attached.  The sweep cache salts keys with the plan
fingerprint, so faulted and healthy results never alias.
"""

from repro.faults.injector import FaultInjector, SkewedEstimator
from repro.faults.plan import (
    FAULTS_ENV, BurstSpec, DegradationPolicy, FaultPlan, MsrFaultSpec,
    SkewSpec, StallSpec, ThrottleSpec, resolve_fault_plan,
)
from repro.faults.resilience import ResilienceController
from repro.faults.scenarios import SCENARIOS, scenario_named, scenario_names

__all__ = [
    "FAULTS_ENV", "BurstSpec", "DegradationPolicy", "FaultInjector",
    "FaultPlan", "MsrFaultSpec", "ResilienceController", "SCENARIOS",
    "SkewSpec", "SkewedEstimator", "StallSpec", "ThrottleSpec",
    "resolve_fault_plan", "scenario_named", "scenario_names",
]
