"""Average Rate (AVR): the other online heuristic of Yao et al.

Alongside OA, Yao, Demers & Shenker's 1995 paper proposed AVR: run the
processor at the *sum of the densities* of all currently-live jobs
(each job contributes ``w/(d-a)`` throughout its own window) and
execute in EDF order.  AVR is ``2^(alpha-1) * alpha^alpha``-competitive
against YDS --- weaker than OA's ``alpha^alpha`` --- and needs no
replanning, just an accumulator.

Included to round out the algorithm family the paper situates POLARIS
in (Figure 4): YDS (offline preemptive), OA/AVR (online preemptive),
POLARIS (online non-preemptive).  The theory bench compares all four.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.theory.model import ProblemInstance, Schedule, Segment, coalesce

_TOL = 1e-12


def avr_speed_profile(instance: ProblemInstance
                      ) -> List[Tuple[float, float, float]]:
    """Piecewise-constant speed: sum of live jobs' densities.

    Breakpoints at every arrival and deadline.
    """
    events = sorted({j.arrival for j in instance.jobs}
                    | {j.deadline for j in instance.jobs})
    profile: List[Tuple[float, float, float]] = []
    for start, end in zip(events, events[1:]):
        # The ``window > _TOL`` guard keeps point-deadline jobs out of
        # the accumulator: a sub-tolerance window can satisfy both
        # tolerance-padded endpoint tests for a slot it cannot actually
        # occupy, pouring its (near-infinite) density into a neighbour.
        speed = sum(j.density for j in instance.jobs
                    if j.window > _TOL
                    and j.arrival <= start + _TOL
                    and j.deadline >= end - _TOL)
        if speed > _TOL:
            profile.append((start, end, speed))
    return profile


def avr_schedule(instance: ProblemInstance) -> Schedule:
    """AVR's schedule: preemptive EDF over the density-sum profile.

    Feasibility follows from the classic argument: within any interval,
    the available capacity covers every live job's proportional share.
    """
    profile = avr_speed_profile(instance)
    remaining: Dict[int, float] = {j.job_id: j.work for j in instance.jobs}
    segments: List[Segment] = []
    for slot_start, slot_end, speed in profile:
        t = slot_start
        while t < slot_end - _TOL:
            ready = [j for j in instance.jobs
                     if j.arrival <= t + _TOL
                     and remaining[j.job_id] > _TOL]
            if not ready:
                break
            job = min(ready, key=lambda j: (j.deadline, j.job_id))
            finish_in = remaining[job.job_id] / speed
            until = min(t + finish_in, slot_end)
            if until <= t + _TOL:
                break
            segments.append(Segment(t, until, speed, job.job_id))
            remaining[job.job_id] = max(
                0.0, remaining[job.job_id] - speed * (until - t))
            t = until
    return Schedule(coalesce(segments))
