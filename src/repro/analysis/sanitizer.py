"""simsan --- the opt-in runtime simulation sanitizer.

The reproduction's core claim is that every figure is a deterministic
function of ``(ExperimentConfig, seed)`` and that scheduler decisions
follow provable invariants (EDF pop order, monotone frequency
selection, P-state bounds, monotone virtual clock).  The sanitizer
turns those invariants into *checked* assertions: components that hold
simulation state (:class:`repro.sim.engine.Simulator`,
:class:`repro.core.polaris.PolarisScheduler`,
:class:`repro.cpu.core.Core`) consult :func:`simsan_enabled` at
construction time and, when it is on, verify their invariants as the
simulation runs, raising :class:`SimulationInvariantError` with the
offending event's context instead of silently corrupting results.

Enabling
--------
* Environment: ``REPRO_SIMSAN=1`` (accepted truthy spellings: ``1``,
  ``true``, ``yes``, ``on``; anything else, including unset, is off).
* Per instance: ``Simulator(sanitize=True)`` /
  ``PolarisScheduler(..., sanitize=True)`` override the environment in
  either direction.  ``run_experiment`` always passes the value its
  :class:`~repro.harness.experiment.RunFlags` resolved, so inside a run
  the environment is not consulted; directly built components keep the
  environment default, which is how ``REPRO_SIMSAN=1 pytest`` sanitizes
  unit tests.

When the sanitizer is off the hooks reduce to a single pre-resolved
boolean test (usually hoisted into a local before hot loops), so the
disabled overhead is indistinguishable from noise
(``tests/test_simsan.py`` counts that no check is entered).

Sanitized runs are byte-identical to unsanitized runs (all checks are
read-only); the sweep cache nevertheless salts its keys with the
sanitizer state (see :func:`repro.harness.parallel.config_key`) so a
sanitizer experiment can never be confused with a figure cell.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Optional

#: Environment variable that switches the sanitizer on globally.
SIMSAN_ENV = "REPRO_SIMSAN"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def simsan_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the sanitizer state for a component being constructed.

    ``override`` is the component's explicit ``sanitize=`` argument:
    ``True``/``False`` win outright, ``None`` defers to the
    :data:`SIMSAN_ENV` environment variable.
    """
    if override is not None:
        return bool(override)
    return os.environ.get(SIMSAN_ENV, "").strip().lower() in _TRUTHY


class SimulationInvariantError(AssertionError):
    """A simulation invariant was violated.

    Carries the machine-readable ``invariant`` name and a ``context``
    dict (event times, core ids, frequencies, ...) so violation reports
    name *what* broke and *where in virtual time*, not just that
    something did.
    """

    def __init__(self, invariant: str, message: str, **context: object):
        self.invariant = invariant
        self.message = message
        self.context = dict(context)
        detail = ", ".join(f"{key}={value!r}"
                           for key, value in sorted(self.context.items()))
        text = f"simsan [{invariant}]: {message}"
        if detail:
            text = f"{text} ({detail})"
        super().__init__(text)

    def __reduce__(self):
        # Rebuilt from its own arguments, so a violation raised inside a
        # sweep worker unpickles in the parent with its context intact.
        return (partial(type(self), self.invariant, self.message,
                        **self.context), ())


def invariant(condition: bool, name: str, message: str,
              **context: object) -> None:
    """Raise :class:`SimulationInvariantError` unless ``condition`` holds.

    Callers are expected to have already tested their ``sanitize``
    flag --- this helper only packages the failure.
    """
    if not condition:
        raise SimulationInvariantError(name, message, **context)


__all__ = [
    "SIMSAN_ENV", "SimulationInvariantError", "invariant", "simsan_enabled",
]
