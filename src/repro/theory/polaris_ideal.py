"""Idealized POLARIS under the standard model (Sections 4.4-4.6).

The algorithm analyzed in the paper's theory section: online,
**non-preemptive**, executes in EDF order, knows loads exactly, and may
pick any continuous speed.  On every arrival and completion it runs the
continuous analogue of SetProcessorFreq: the minimum speed at which the
running transaction *and* every EDF-ordered queued transaction finish
by their deadlines ---

    s = max over EDF prefixes P of
        (remaining(running) + sum of P's loads) / (deadline(P's last) - now)

(the running transaction's own deadline contributes the first term with
an empty prefix).  Because the model's speeds are unbounded, every
deadline is met; only energy differs between algorithms.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

from repro.theory.model import ProblemInstance, Schedule, Segment, coalesce

_TOL = 1e-12
_EPS_DENOM = 1e-15


def _required_speed(now: float, running_rem: float, running_deadline: float,
                    queue: List[Tuple[float, int, float]]) -> float:
    """Minimum speed meeting all deadlines (continuous Figure 2)."""
    speed = 0.0
    if running_rem > _TOL:
        horizon = max(running_deadline - now, _EPS_DENOM)
        speed = running_rem / horizon
    cumulative = running_rem
    for deadline, _job_id, work in sorted(queue):
        cumulative += work
        horizon = max(deadline - now, _EPS_DENOM)
        speed = max(speed, cumulative / horizon)
    return speed


def polaris_ideal_schedule(instance: ProblemInstance) -> Schedule:
    """Simulate idealized POLARIS; returns its (non-preemptive) schedule."""
    arrivals = sorted(instance.jobs, key=lambda j: (j.arrival, j.deadline,
                                                    j.job_id))
    segments: List[Segment] = []

    # queue entries: (deadline, job_id, work)
    queue: List[Tuple[float, int, float]] = []
    running_id: Optional[int] = None
    running_rem = 0.0
    running_deadline = 0.0
    speed = 0.0
    now = arrivals[0].arrival
    last_change = now
    next_arrival_index = 0

    def emit_progress(until: float) -> None:
        nonlocal running_rem, last_change
        if running_id is not None and until > last_change + _TOL \
                and speed > _TOL:
            segments.append(Segment(last_change, until, speed, running_id))
            running_rem = max(0.0, running_rem - speed * (until - last_change))
        last_change = until

    def dispatch_next(at: float) -> None:
        nonlocal running_id, running_rem, running_deadline
        if queue:
            deadline, job_id, work = heapq.heappop(queue)
            running_id = job_id
            running_rem = work
            running_deadline = deadline
        else:
            running_id = None
            running_rem = 0.0

    while True:
        # Next event: arrival or completion of the running job.
        arrival_time = arrivals[next_arrival_index].arrival \
            if next_arrival_index < len(arrivals) else float("inf")
        if running_id is not None and speed > _TOL:
            completion_time = now + running_rem / speed
        else:
            completion_time = float("inf")
        next_time = min(arrival_time, completion_time)
        if math.isinf(next_time):
            break
        emit_progress(next_time)
        now = next_time

        if completion_time <= arrival_time + _TOL \
                and running_id is not None and running_rem <= 1e-9:
            # Completion event (Figure 2's completion trigger).
            dispatch_next(now)
        if abs(now - arrival_time) <= _TOL:
            # Arrival event(s): enqueue everything arriving now.
            while next_arrival_index < len(arrivals) and \
                    arrivals[next_arrival_index].arrival <= now + _TOL:
                job = arrivals[next_arrival_index]
                heapq.heappush(queue, (job.deadline, job.job_id, job.work))
                next_arrival_index += 1
            if running_id is None:
                dispatch_next(now)
        speed = _required_speed(now, running_rem, running_deadline, queue)
        last_change = now

    return Schedule(coalesce(segments))
