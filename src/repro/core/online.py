"""Online speed-scaling schedulers: qOA-style and AVR, on real hardware.

The theory package holds OA and AVR as idealized offline oracles
(continuous speeds, true work known, preemption free).  This module
promotes both into first-class runnable schedulers that share the
:class:`~repro.core.polaris.PolarisScheduler` worker/queue contract:
EDF dispatch, ``select_frequency`` invoked on every arrival and
completion, discrete P-states with relation-L rounding, panic and
simsan hooks.  Three idealizations have to be dropped at the door:

* **True work is hidden.**  Like POLARIS, the schedulers only see the
  ``mu(c, f)`` execution-time estimator; a request's work is inferred
  as ``estimate(c, f_max) * f_max`` giga-cycles, and the running
  transaction's remaining work subtracts the elapsed time as if it ran
  at ``f_max`` (the same single-frequency simplification POLARIS's
  line-2 clamp makes).
* **Speeds are a discrete grid.**  The continuous target speed is
  mapped with relation *L* (lowest P-state at or above the target); a
  target above the grid runs flat out, exactly Figure 2's line 14.
* **Execution is non-preemptive.**  The preemptive plans degenerate to
  "replan at every arrival/completion, dispatch in EDF order" --- the
  same embedding the paper uses for POLARIS itself.

:class:`QoaScheduler` is OA with a speed multiplier ``q_factor``
(Bansal, Chan & Pruhs's qOA: running at ``q >= 1`` times OA's speed
trades energy for a better competitive ratio; ``q = 1`` is plain OA,
``q = 2 - 1/alpha`` the classic qOA operating point).
:class:`AvrScheduler` is Yao, Demers & Shenker's density accumulator.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.polaris import PolarisScheduler
from repro.core.request import Request


class OnlineSpeedScaler(PolarisScheduler):
    """Shared plumbing: estimate-based work inference + relation-L.

    Subclasses implement :meth:`_target_speed` returning a continuous
    target in GHz; this base handles panic, rounding, accounting, and
    decision tracing, keeping the :class:`PolarisScheduler` contract
    (pstate-membership simsan check included) intact.
    """

    def _work_gcycles(self, request: Request) -> float:
        """Inferred work: predicted time at ``f_max`` times ``f_max``."""
        return request.mu[-1] * self.frequencies[-1]

    def _remaining_gcycles(self, running: Request,
                           elapsed_s: float) -> float:
        """Running transaction's inferred remaining work (clamped at 0)."""
        return max(0.0, running.mu[-1] - elapsed_s) * self.frequencies[-1]

    def _relation_l(self, target_ghz: float) -> float:
        """Lowest grid frequency at or above ``target_ghz`` (relation L);
        flat out when the target exceeds the grid."""
        for f in self.frequencies:
            if f + 1e-9 >= target_ghz:
                return f
        return self.frequencies[-1]

    def _target_speed(self, now: float, running: Optional[Request],
                      running_elapsed: float) -> float:
        raise NotImplementedError

    def select_frequency(self, now: float, running: Optional[Request],
                         running_elapsed: float = 0.0) -> float:
        self.invocations += 1
        freqs = self.frequencies
        if self.panic:
            if self.trace_decisions:
                self.last_decision = {
                    "selected_ghz": freqs[-1], "floor_ghz": freqs[-1],
                    "queue_len": len(self.queue), "target_ghz": freqs[-1],
                    "early_exit": True, "panic": True,
                }
            return freqs[-1]
        self._current_rows(running, self.queue)
        target = self._target_speed(now, running, running_elapsed)
        self.queue_items_scanned += len(self.queue)
        selected = self._relation_l(target)
        if self.sanitize:
            self._sanitize_selected(selected, 0, now)
        if self.trace_decisions:
            self.last_decision = {
                "selected_ghz": selected,
                "floor_ghz": freqs[0],
                "queue_len": len(self.queue),
                # Infinite targets (work due *now*) are recorded as None
                # so trace export stays valid JSON.
                "target_ghz": target if math.isfinite(target) else None,
                "early_exit": target > freqs[-1],
            }
        return selected


class QoaScheduler(OnlineSpeedScaler):
    """Online qOA: per-arrival OA replan on the discrete grid.

    At every invocation the pending set (running transaction's remaining
    work plus every queued request) is re-planned exactly like
    :func:`repro.theory.oa._staircase_plan` at ``now``: sorted by
    deadline, the target speed is the maximum prefix density
    ``sum(work) / (deadline - now)`` --- the first staircase group's
    speed, which is all OA ever executes before the next replan.  The
    result is multiplied by :attr:`q_factor` and rounded with relation
    L.  A deadline at or behind ``now`` is an infinite density: run
    flat out (the discrete-grid analogue of the oracle's instantaneous
    completion).
    """

    name = "oa-online"

    #: OA speed multiplier; 1.0 is plain OA, ``2 - 1/alpha`` classic qOA.
    q_factor = 1.0

    def _target_speed(self, now: float, running: Optional[Request],
                      running_elapsed: float) -> float:
        jobs: List[Tuple[float, float]] = []  # (deadline, work Gcycles)
        if running is not None:
            jobs.append((running.deadline,
                         self._remaining_gcycles(running, running_elapsed)))
        for queued in self.queue:
            jobs.append((queued.deadline, self._work_gcycles(queued)))
        if not jobs:
            return self.frequencies[0]
        jobs.sort()
        acc = 0.0
        density = 0.0
        for deadline, work in jobs:
            acc += work
            horizon = deadline - now
            if horizon <= 1e-12:
                # Due now: infinite density in the idealized model.
                return float("inf")
            density = max(density, acc / horizon)
        return density * self.q_factor


class AvrScheduler(OnlineSpeedScaler):
    """Online AVR: the density accumulator on the discrete grid.

    Each live request contributes its own density
    ``work / (deadline - arrival)`` --- both endpoints observable, work
    inferred from the estimator --- and the target speed is the plain
    sum, no replanning.  AVR tracks no progress: the running
    transaction contributes its full density until it completes and
    leaves the set.  A request whose window has already closed
    (``deadline <= now``) can no longer be served by its average rate;
    it forces flat-out, mirroring POLARIS's line-14 behaviour for late
    work.
    """

    name = "avr-online"

    def _target_speed(self, now: float, running: Optional[Request],
                      running_elapsed: float) -> float:
        live = list(self.queue)
        if running is not None:
            live.append(running)
        density = 0.0
        for request in live:
            window = request.deadline - request.arrival_time
            if request.deadline - now <= 1e-12 or window <= 1e-12:
                # Window closed (or degenerate): the average rate can
                # no longer finish this request --- run flat out.
                return float("inf")
            density += self._work_gcycles(request) / window
        return density
