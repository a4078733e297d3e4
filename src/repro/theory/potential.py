"""Numerical verification of Appendix C's potential-function argument.

Theorem 4.4 states ``Pow[POLARIS(P)] <= alpha^alpha * Pow[YDS(P')]``
where P' scales every load by ``c = 1 + w_max/w_min``.  Appendix C
proves it with the amortization potential (following Bansal et al.):

    phi(t) = alpha * sum_i s_pna(t_i)^(alpha-1)
                     * ( w_P(t_i, t_{i+1}) - alpha * w_Y(t_i, t_{i+1}) )

where, at time t,

* ``s_pna`` is POLARIS's *planned* no-arrival speed staircase --- the
  YDS/OA plan over its currently pending work (critical-interval
  densities, non-increasing);
* ``t_i`` are the plan's critical-interval boundaries;
* ``w_P(a, b]`` / ``w_Y(a, b]`` are the unfinished work with deadlines
  in ``(a, b]`` of POLARIS on P and of YDS on P', respectively.

Appendix C's three claims, each of which this module checks
numerically along actual simulated trajectories:

1. ``phi`` is zero before the first arrival and after the last
   completion;
2. ``phi`` does not increase at arrival or completion events;
3. between events, ``s_P(t)^alpha + dphi/dt <= alpha^alpha *
   s_Y(t)^alpha`` (checked by central finite differences).

Integrating claim 3 between events and summing yields Theorem 4.4,
which :func:`verify_theorem_4_4` also checks directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.theory.model import ProblemInstance, Schedule
from repro.theory.oa import _staircase_plan
from repro.theory.polaris_ideal import polaris_ideal_schedule
from repro.theory.yds import yds_schedule

_TOL = 1e-12
#: Interior points of every inter-event gap where claim 3 is sampled.
DRIFT_POINTS = 7


# ----------------------------------------------------------------------
# Trajectory reconstruction from schedules
# ----------------------------------------------------------------------
def remaining_at(schedule: Schedule, instance: ProblemInstance,
                 t: float) -> Dict[int, float]:
    """Per-job unfinished work at time ``t`` (arrived jobs only)."""
    remaining = {}
    for job in instance.jobs:
        if job.arrival <= t + _TOL:
            remaining[job.job_id] = job.work
    for segment in schedule.segments:
        if segment.end <= t + _TOL:
            done = segment.work_done
        elif segment.start < t:
            done = segment.speed * (t - segment.start)
        else:
            continue
        if segment.job_id in remaining:
            remaining[segment.job_id] = max(
                0.0, remaining[segment.job_id] - done)
    return {job_id: w for job_id, w in remaining.items() if w > 1e-9}


def speed_at(schedule: Schedule, t: float) -> float:
    """The schedule's speed at time ``t`` (0 when idle)."""
    for segment in schedule.segments:
        if segment.start - _TOL <= t < segment.end - _TOL:
            return segment.speed
    return 0.0


# ----------------------------------------------------------------------
# The potential function
# ----------------------------------------------------------------------
def phi(t: float, instance: ProblemInstance, scaled: ProblemInstance,
        polaris: Schedule, yds: Schedule, alpha: float) -> float:
    """Evaluate Appendix C's potential at time ``t``."""
    deadlines = {j.job_id: j.deadline for j in instance.jobs}
    pending_p = remaining_at(polaris, instance, t)
    if not pending_p:
        return 0.0
    pending_y = remaining_at(yds, scaled, t)

    # POLARIS's no-arrival plan: the OA staircase over its pending work.
    entries = [(deadlines[job_id], rem, job_id)
               for job_id, rem in pending_p.items()]
    plan = _staircase_plan(t, entries)

    total = 0.0
    boundary = t
    for speed, group in plan:
        interval_end = group[-1][0]
        w_p = sum(rem for _d, rem, _id in group)
        w_y = sum(rem for job_id, rem in pending_y.items()
                  if boundary < deadlines[job_id] <= interval_end + _TOL)
        total += speed ** (alpha - 1) * (w_p - alpha * w_y)
        boundary = interval_end
    return alpha * total


@dataclass
class PotentialCheck:
    """Outcome of the Appendix C verification on one instance."""

    alpha: float
    c_factor: float
    energy_polaris: float
    energy_yds_scaled: float
    claim1_boundary_values: Tuple[float, float]
    claim2_max_event_jump: float
    claim3_max_violation: float
    drift_samples: int

    @property
    def theorem_4_4_holds(self) -> bool:
        return self.energy_polaris \
            <= self.alpha ** self.alpha * self.energy_yds_scaled \
            * (1 + 1e-6) + 1e-9

    @property
    def all_claims_hold(self) -> bool:
        return (abs(self.claim1_boundary_values[0]) < 1e-6
                and abs(self.claim1_boundary_values[1]) < 1e-6
                and self.claim2_max_event_jump < 1e-6
                and self.claim3_max_violation < 1e-6
                and self.theorem_4_4_holds)


def verify_theorem_4_4(instance: ProblemInstance,
                       alpha: float = 3.0) -> PotentialCheck:
    """Check Appendix C's claims numerically on one instance.

    Simulates POLARIS on P and YDS on P' (loads scaled by c), then
    samples the potential around every event and at ``DRIFT_POINTS``
    interior points of every inter-event gap.
    """
    c = instance.c_factor()
    scaled = instance.scaled(c)
    polaris = polaris_ideal_schedule(instance)
    yds = yds_schedule(scaled)

    # Event times: arrivals plus both algorithms' segment boundaries.
    events = sorted({j.arrival for j in instance.jobs}
                    | {s.start for s in polaris.segments}
                    | {s.end for s in polaris.segments}
                    | {s.start for s in yds.segments}
                    | {s.end for s in yds.segments})
    start, end = events[0], events[-1]
    span = end - start
    eps = max(span * 1e-7, 1e-9)

    def potential(t: float) -> float:
        return phi(t, instance, scaled, polaris, yds, alpha)

    # Claim 1: zero at the boundaries.
    boundary_values = (potential(start - eps), potential(end + eps))

    # Claim 2: no event increases phi.  phi drifts continuously between
    # events, so one-sided limits are recovered by linear extrapolation
    # from two sample points on each side (cancelling first-order drift
    # across the +/-eps window).
    max_jump = 0.0
    for event in events:
        left_limit = 2 * potential(event - eps) - potential(event - 2 * eps)
        right_limit = 2 * potential(event + eps) - potential(event + 2 * eps)
        scale = max(1.0, abs(left_limit), abs(right_limit))
        max_jump = max(max_jump, (right_limit - left_limit) / scale)

    # Claim 3: drift inequality between events (central differences).
    max_violation = 0.0
    samples = 0
    alpha_pow = alpha ** alpha
    for left, right in zip(events, events[1:]):
        gap = right - left
        if gap < 10 * eps:
            continue
        h = min(gap / 20.0, max(gap * 1e-4, eps))
        for k in range(1, DRIFT_POINTS + 1):
            t = left + gap * k / (DRIFT_POINTS + 1)
            s_p = speed_at(polaris, t)
            s_y = speed_at(yds, t)
            dphi = (potential(t + h) - potential(t - h)) / (2 * h)
            lhs = s_p ** alpha + dphi
            rhs = alpha_pow * s_y ** alpha
            scale = max(1.0, abs(lhs), abs(rhs))
            max_violation = max(max_violation, (lhs - rhs) / scale)
            samples += 1

    return PotentialCheck(
        alpha=alpha,
        c_factor=c,
        energy_polaris=polaris.energy(alpha),
        energy_yds_scaled=yds.energy(alpha),
        claim1_boundary_values=boundary_values,
        claim2_max_event_jump=max_jump,
        claim3_max_violation=max_violation,
        drift_samples=samples,
    )
