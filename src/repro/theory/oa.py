"""Optimal Available (OA): online preemptive speed scaling (Section 4.3).

At each arrival, OA runs YDS on the instance consisting of all pending
work with arrival times reset to "now".  Because every job in that
instance shares the same arrival, the YDS plan collapses to a staircase:
sort pending jobs by deadline; the first critical interval is the prefix
maximizing ``(sum of prefix work) / (prefix deadline - now)``; run that
prefix in EDF order at exactly that density, then recurse on the rest.
Bansal, Kimbrel & Pruhs showed OA is ``alpha^alpha``-competitive
against YDS.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.theory.model import ProblemInstance, Schedule, Segment, coalesce

_TOL = 1e-12

#: Width used to materialize an "instantaneous" completion.  When a
#: pending job's deadline sits at/behind the plan start, the idealized
#: model runs it at infinite speed for zero time; ``Segment`` cannot
#: represent a zero-width run, so we clamp to this sliver (well inside
#: ``Schedule.check_feasible``'s 1e-6 relative tolerance) at the finite
#: speed that completes the remaining work.
_INSTANT = 1e-9


def _staircase_plan(now: float, pending: List[Tuple[float, float, int]]
                    ) -> List[Tuple[float, List[Tuple[float, float, int]]]]:
    """OA's plan at time ``now``.

    ``pending`` holds (deadline, remaining_work, job_id).  Returns a
    list of (speed, group) entries in execution order; each group's
    jobs are already EDF-sorted.
    """
    jobs = sorted(pending)
    plan: List[Tuple[float, List[Tuple[float, float, int]]]] = []
    start = now
    index = 0
    while index < len(jobs):
        best_density = -1.0
        best_end = index
        acc = 0.0
        for k in range(index, len(jobs)):
            acc += jobs[k][1]
            horizon = jobs[k][0] - start
            if horizon <= _TOL:
                # Deadline at/behind the current plan start: infinite
                # density in the idealized model.  Deadlines ascend, so
                # this can only trigger at k == index and the group is
                # that single job, completed instantaneously by
                # ``oa_schedule``.
                best_density = float("inf")
                best_end = k
                break
            density = acc / horizon
            if density > best_density + _TOL:
                best_density = density
                best_end = k
        group = jobs[index:best_end + 1]
        plan.append((best_density, group))
        # A behind-the-start deadline must not move the staircase start
        # backwards — that would inflate every later group's horizon.
        start = max(start, jobs[best_end][0])
        index = best_end + 1
    return plan


def oa_schedule(instance: ProblemInstance) -> Schedule:
    """Simulate OA on ``instance`` and return its schedule.

    The simulation advances from arrival to arrival, executing the
    current staircase plan in between.  Speeds in the idealized model
    are unbounded, so every deadline is met (Section 4.1).
    """
    events = sorted({j.arrival for j in instance.jobs})
    remaining: Dict[int, float] = {}
    deadlines: Dict[int, float] = {j.job_id: j.deadline for j in instance.jobs}
    arrived = set()
    segments: List[Segment] = []

    for event_index, now in enumerate(events):
        for job in instance.jobs:
            if abs(job.arrival - now) <= _TOL and job.job_id not in arrived:
                arrived.add(job.job_id)
                remaining[job.job_id] = job.work
        next_arrival = events[event_index + 1] \
            if event_index + 1 < len(events) else float("inf")

        pending = [(deadlines[job_id], rem, job_id)
                   for job_id, rem in remaining.items() if rem > _TOL]
        plan = _staircase_plan(now, pending)
        cursor = now
        for speed, group in plan:
            if cursor >= next_arrival - _TOL:
                break
            for _deadline, _rem, job_id in group:
                rem = remaining[job_id]
                if rem <= _TOL:
                    continue
                if not math.isfinite(speed):
                    # Instantaneous completion: the job is due *now*, so
                    # it finishes in (idealized) zero time and cannot be
                    # cut off by the next arrival.  Without this branch
                    # the segment below would have zero width and the
                    # work would be silently dropped.  The speed comes
                    # from the *rounded* width (at large ``cursor`` the
                    # float sum absorbs part of the sliver) so the
                    # segment carries exactly ``rem`` work.
                    end = cursor + _INSTANT
                    if end <= cursor:
                        end = math.nextafter(cursor, math.inf)
                    segments.append(Segment(
                        cursor, end, rem / (end - cursor), job_id))
                    remaining[job_id] = 0.0
                    cursor = end
                    continue
                finish = cursor + rem / speed
                end = min(finish, next_arrival)
                if end > cursor + _TOL:
                    segments.append(Segment(cursor, end, speed, job_id))
                    remaining[job_id] = max(0.0, rem - speed * (end - cursor))
                    cursor = end
                if cursor >= next_arrival - _TOL:
                    break
    return Schedule(coalesce(segments))
