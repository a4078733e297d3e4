"""repro.faults: deterministic fault injection + graceful degradation.

The simulator's chaos layer.  A :class:`~repro.faults.plan.FaultPlan`
declares what breaks and when (DVFS write failures, thermal-throttle
envelopes, core stalls, arrival bursts, estimator misprediction); a
:class:`~repro.faults.injector.FaultInjector` schedules it on the
virtual clock; a :class:`~repro.faults.resilience.ResilienceController`
arms the server's degraded modes (bounded DVFS retry, a stalled-core
watchdog with queue migration, admission-control shedding, and a
hysteretic POLARIS panic mode).

Enable contract, matching simsan (``REPRO_SIMSAN``,
:func:`repro.analysis.sanitizer.simsan_enabled`) and tracing
(``REPRO_TRACE``, :func:`repro.obs.trace.trace_enabled`), and resolved
by :func:`resolve_fault_plan` below:

* ``REPRO_FAULTS=dying-core`` (a scenario name, ``+``-composable) or
  ``REPRO_FAULTS=/path/plan.json`` applies a plan to every experiment;
* ``ExperimentConfig(faults=FaultPlan(...))`` --- or a scenario
  name / JSON path --- configures one cell explicitly and overrides the
  environment in either direction (an *empty* plan is inert, so it is
  the force-healthy spelling).

Determinism: same seed + same plan -> byte-identical results;
``faults=None`` (no env) is bit-identical to a build without this
package attached.  The sweep cache salts keys with the plan
fingerprint, so faulted and healthy results never alias.

Import the submodules directly.  This init holds only the switch, and
the switch imports :mod:`repro.faults.plan` only when a plan is passed
or ``REPRO_FAULTS`` is set: a healthy run loads no fault code.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan, FaultsLike

#: Environment variable naming a scenario (or a JSON plan file) that
#: applies to every experiment not configured explicitly.
FAULTS_ENV = "REPRO_FAULTS"


def resolve_fault_plan(faults: FaultsLike = None) -> Optional[FaultPlan]:
    """Resolve the plan for a run being constructed.

    An explicit :class:`~repro.faults.plan.FaultPlan` wins; a string
    names a scenario from the library (``"burst"``,
    ``"burst+brownout"``) or a JSON plan file path; ``None`` defers to
    the :data:`FAULTS_ENV` environment variable (unset or blank -> no
    faults).  A plan that cannot change a run resolves to ``None``.
    """
    if faults is None:
        faults = os.environ.get(FAULTS_ENV, "").strip()
    if not faults:
        return None
    from repro.faults.plan import FaultPlan
    if isinstance(faults, FaultPlan):
        plan = faults
    elif faults.endswith(".json") or os.path.sep in faults:
        with open(faults, "r", encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())
    else:
        from repro.faults.scenarios import scenario_named
        plan = scenario_named(faults)
    return None if plan.is_empty else plan
