"""Static and runtime correctness tooling for the reproduction.

Two halves:

* **reprolint** (:mod:`repro.analysis.linter`,
  :mod:`repro.analysis.rules`, CLI ``python -m repro.analysis``) ---
  per-file AST lint rules for hazards no run shows, so tier-1 cannot
  catch them: RL004 float equality on times and frequencies, RL005
  mutable defaults, RL007 swallowed exceptions, RL008 unfrozen state
  dataclasses, RL009 suppression hygiene.
* **simsan** (:mod:`repro.analysis.sanitizer`) --- the opt-in runtime
  invariant checker (``REPRO_SIMSAN=1`` / ``sanitize=True``) that the
  engine, schedulers, and CPU model consult.

Only the sanitizer names are re-exported here: simulation modules
import them at startup, and they must stay dependency-free (``os``
only).  The linter is imported on demand by the CLI and tests.
"""

from repro.analysis.sanitizer import (
    SIMSAN_ENV, SimulationInvariantError, invariant, simsan_enabled,
)

__all__ = [
    "SIMSAN_ENV", "SimulationInvariantError", "invariant", "simsan_enabled",
]
