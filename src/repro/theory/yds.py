"""Yao-Demers-Shenker (YDS): the optimal offline preemptive algorithm.

Section 4.2: repeatedly find the interval of maximum *density* (summed
load of jobs whose windows it contains, divided by its length), run
those jobs inside it in EDF order at exactly the density, remove the
interval (compressing the remaining jobs' windows by their overlap),
and recurse.

Implementation notes
--------------------
The iteration runs in *compressed* coordinates; for each critical
interval we record its support on the **original** timeline (the
interval's span minus previously removed time).  Densities are
non-increasing across iterations (the classic YDS invariant, asserted
here), so the final speed profile is well defined.  The explicit
schedule is produced by one global preemptive-EDF pass over the speed
profile --- given the YDS profile, EDF feasibly schedules all jobs ---
which keeps the per-interval bookkeeping simple and lets
``Schedule.check_feasible`` verify the result end to end.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.theory.model import ProblemInstance, Schedule, Segment, coalesce

_TOL = 1e-9


class _CurJob:
    __slots__ = ("job_id", "a", "d", "w")

    def __init__(self, job_id: int, a: float, d: float, w: float):
        self.job_id = job_id
        self.a = a
        self.d = d
        self.w = w


def _find_critical(jobs: Sequence[_CurJob]) -> Tuple[float, float, float]:
    """Max-density interval over candidate (arrival, deadline) pairs."""
    starts = sorted({j.a for j in jobs})
    ends = sorted({j.d for j in jobs})
    best: Optional[Tuple[float, float, float]] = None
    for s in starts:
        for e in ends:
            if e <= s + _TOL:
                continue
            work = sum(j.w for j in jobs
                       if j.a >= s - _TOL and j.d <= e + _TOL)
            if work <= 0:
                continue
            density = work / (e - s)
            if best is None or density > best[2] + _TOL:
                best = (s, e, density)
            elif abs(density - best[2]) <= _TOL and (s, e) < (best[0], best[1]):
                best = (s, e, density)
    assert best is not None, "no candidate interval found"
    return best


def _subtract(interval: Tuple[float, float],
              removed: List[Tuple[float, float]]
              ) -> List[Tuple[float, float]]:
    """``interval`` minus the (disjoint, sorted) ``removed`` slots."""
    slots = [interval]
    for rs, re in removed:
        next_slots = []
        for s, e in slots:
            if re <= s + _TOL or rs >= e - _TOL:
                next_slots.append((s, e))
                continue
            if rs > s + _TOL:
                next_slots.append((s, rs))
            if re < e - _TOL:
                next_slots.append((re, e))
        slots = next_slots
    return slots


def _merge(removed: List[Tuple[float, float]],
           new_slots: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged = sorted(removed + new_slots)
    out: List[Tuple[float, float]] = []
    for s, e in merged:
        if out and s <= out[-1][1] + _TOL:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _cur_to_orig(x: float, removed: List[Tuple[float, float]],
                 as_start: bool) -> float:
    """Map a compressed coordinate back to the original timeline.

    ``as_start`` picks the side at collapse points: interval starts move
    past removed time, interval ends stay before it.
    """
    for rs, re in removed:  # sorted ascending in original coordinates
        if as_start:
            if x >= rs - _TOL:
                x += re - rs
        else:
            if x > rs + _TOL:
                x += re - rs
    return x


def yds_speed_profile(instance: ProblemInstance
                      ) -> List[Tuple[float, float, float]]:
    """The YDS speed function as (start, end, speed) slots on the
    original timeline, sorted by start, with non-increasing speeds
    across critical intervals (each interval may span several slots)."""
    current = [_CurJob(j.job_id, j.arrival, j.deadline, j.work)
               for j in instance.jobs]
    removed: List[Tuple[float, float]] = []
    profile: List[Tuple[float, float, float]] = []
    last_density = float("inf")
    while current:
        s, e, density = _find_critical(current)
        assert density <= last_density * (1 + 1e-6) + _TOL, \
            f"YDS density increased: {density} after {last_density}"
        last_density = density
        # Original-timeline support of this critical interval.
        orig_s = _cur_to_orig(s, removed, as_start=True)
        orig_e = _cur_to_orig(e, removed, as_start=False)
        slots = _subtract((orig_s, orig_e), removed)
        support = sum(b - a for a, b in slots)
        assert abs(support - (e - s)) <= max(1e-6, 1e-6 * (e - s)), \
            "support length mismatch after decompression"
        for a, b in slots:
            profile.append((a, b, density))
        removed = _merge(removed, slots)
        # Compress the remaining jobs' windows by their overlap with
        # [s, e] (still in the *current* coordinates).
        rest: List[_CurJob] = []
        span = e - s
        for job in current:
            if job.a >= s - _TOL and job.d <= e + _TOL:
                continue  # scheduled inside the critical interval
            na = _compress_point(job.a, s, e, span)
            nd = _compress_point(job.d, s, e, span)
            rest.append(_CurJob(job.job_id, na, nd, job.w))
        current = rest
    profile.sort()
    return profile


def _compress_point(x: float, s: float, e: float, span: float) -> float:
    if x <= s + _TOL:
        return x
    if x >= e - _TOL:
        return x - span
    return s


def _edf_over_profile(instance: ProblemInstance,
                      profile: List[Tuple[float, float, float]]
                      ) -> List[Segment]:
    """Preemptive EDF over the speed profile; returns the segments."""
    remaining = {j.job_id: j.work for j in instance.jobs}
    by_id = {j.job_id: j for j in instance.jobs}
    segments: List[Segment] = []
    for slot_start, slot_end, speed in profile:
        t = slot_start
        while t < slot_end - _TOL:
            ready = [j for j in instance.jobs
                     if j.arrival <= t + _TOL and remaining[j.job_id] > _TOL]
            if not ready:
                # Advance to the next arrival inside the slot.
                future = [j.arrival for j in instance.jobs
                          if j.arrival > t + _TOL
                          and remaining[j.job_id] > _TOL]
                if not future:
                    t = slot_end
                    break
                t = min(min(future), slot_end)
                continue
            job = min(ready, key=lambda j: (j.deadline, j.job_id))
            finish_in = remaining[job.job_id] / speed
            # Run until the job finishes, the slot ends, or a new
            # arrival could preempt.
            future = [j.arrival for j in instance.jobs
                      if j.arrival > t + _TOL and remaining[j.job_id] > _TOL]
            until = min([t + finish_in, slot_end] +
                        ([min(future)] if future else []))
            if until <= t + _TOL:
                until = min(t + finish_in, slot_end)
            segments.append(Segment(t, until, speed, job.job_id))
            remaining[job.job_id] -= speed * (until - t)
            if remaining[job.job_id] < max(1e-9, 1e-9 * by_id[job.job_id].work):
                remaining[job.job_id] = 0.0
            t = until
    return segments


def yds_schedule(instance: ProblemInstance) -> Schedule:
    """The full YDS schedule (speed profile + preemptive EDF packing).

    The returned schedule is validated by the caller via
    :meth:`Schedule.check_feasible`; its energy is the minimum over all
    preemptive schedules (Yao, Demers & Shenker 1995).
    """
    profile = yds_speed_profile(instance)
    segments = _edf_over_profile(instance, profile)
    return Schedule(coalesce(segments))



def yds_energy(instance: ProblemInstance, alpha: float = 3.0) -> float:
    """YDS energy straight from the speed profile (no packing needed)."""
    profile = yds_speed_profile(instance)
    return sum((b - a) * v ** alpha for a, b, v in profile)
