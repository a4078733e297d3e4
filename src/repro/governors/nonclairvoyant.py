"""Nonclairvoyant speed scaling: no execution-time estimate at all.

Chan, Edmonds, Lam, Lee, Marchetti-Spaccamela & Pruhs studied speed
scaling when job sizes are *unknown* (nonclairvoyance is about
processing times --- arrival times and deadlines are declared on the
request, so reading them is fair).  Their flow+energy scaler runs at a
speed proportional to ``n^(1/alpha)`` for ``n`` active jobs: with
power ``s^alpha``, that spends energy at the same rate the algorithm
accumulates flow, which is the balance point of the potential-function
analysis.

:class:`NonclairvoyantScheduler` embeds that rule in
:class:`~repro.core.polaris.PolarisScheduler`'s declaration of the
dispatcher protocol (:class:`~repro.db.server.BaselineDispatcher`) ---
EDF dispatch, replan on every arrival/completion, relation-L rounding
--- but, unlike every other scheduler in the arena, it never reads the
``mu(c, f)`` estimator and never feeds completions back into it (its
``record_completion`` only checks the request).  Its whole input is
the observable queue state:

* ``n`` --- the number of active requests (queued + running); the base
  speed is ``f_min * n^(1/alpha)``.
* queue age --- when any active request has burned more than
  :attr:`urgency_threshold` of its own window sitting in the system,
  the scheduler escalates flat out (deadline pressure without a time
  estimate: "it has been here too long" is observable, "it needs X
  more seconds" is not).

It lives in ``repro.governors`` because informationally it belongs
with the OS governors: like OnDemand/Conservative it is blind to
execution times and scales on an aggregate activity signal --- it just
happens to speak the scheduler interface so it can also own EDF
ordering, making it the bridge between the governor family and the
estimator-based schedulers in the arena.
"""

from __future__ import annotations

from typing import Optional

from repro.core.polaris import PolarisScheduler
from repro.core.request import Request


class NonclairvoyantScheduler(PolarisScheduler):
    """Active-job-count speed scaling with a queue-age escape hatch."""

    name = "nonclairvoyant"

    #: Power-model exponent; the base speed is ``f_min * n^(1/alpha)``.
    alpha = 3.0

    #: Fraction of its own window an active request may spend in the
    #: system before the scheduler runs flat out.
    urgency_threshold = 0.75

    def _target_speed(self, now: float, running: Optional[Request]) -> float:
        active = list(self.queue)
        if running is not None:
            active.append(running)
        if not active:
            return self.frequencies[0]
        for request in active:
            window = request.deadline - request.arrival_time
            if window <= 1e-12 \
                    or now - request.arrival_time \
                    > self.urgency_threshold * window:
                return float("inf")
        return self.frequencies[0] * len(active) ** (1.0 / self.alpha)

    def select_frequency(self, now: float, running: Optional[Request],
                         running_elapsed: float = 0.0) -> float:
        self.invocations += 1
        freqs = self.frequencies
        if self.panic:
            if self.trace_decisions:
                self.last_decision = {
                    "selected_ghz": freqs[-1], "floor_ghz": freqs[-1],
                    "queue_len": len(self.queue), "active_n": 0,
                    "early_exit": True, "panic": True,
                }
            return freqs[-1]
        target = self._target_speed(now, running)
        self.queue_items_scanned += len(self.queue)
        selected = freqs[-1]
        for f in freqs:
            if f + 1e-9 >= target:
                selected = f
                break
        if self.sanitize:
            self._sanitize_selected(selected, 0, now)
        if self.trace_decisions:
            self.last_decision = {
                "selected_ghz": selected,
                "floor_ghz": freqs[0],
                "queue_len": len(self.queue),
                "active_n": len(self.queue) + (1 if running else 0),
                "early_exit": target > freqs[-1],
            }
        return selected

    def record_completion(self, request: Request) -> None:
        """Nonclairvoyant: completions never update the estimator ---
        measured execution times are exactly the information this
        scheme is defined not to have."""
        if request.dispatch_freq is None:
            raise ValueError("request has no dispatch frequency recorded")
