"""Standard-model primitives: jobs, instances, schedules, energy.

All times/speeds are floats; feasibility checks use a relative
tolerance because schedules are built from floating-point densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Default power exponent; alpha ~ 3 corresponds to the classic
#: CMOS dynamic-power model (paper Section 4.1, citing Brooks et al.).
DEFAULT_ALPHA = 3.0

_REL_TOL = 1e-6


@dataclass(frozen=True)
class Job:
    """A standard-model transaction: arrival, deadline, load."""

    job_id: int
    arrival: float
    deadline: float
    work: float

    def __post_init__(self):
        if self.deadline <= self.arrival:
            raise ValueError(
                f"job {self.job_id}: deadline {self.deadline} must be after "
                f"arrival {self.arrival}")
        if self.work <= 0:
            raise ValueError(f"job {self.job_id}: work must be positive")

    @property
    def window(self) -> float:
        return self.deadline - self.arrival

    @property
    def density(self) -> float:
        """The job's own intensity ``w / (d - a)``."""
        return self.work / self.window


class ProblemInstance:
    """A set of jobs (the paper's problem instance P)."""

    def __init__(self, jobs: Sequence[Job]):
        if not jobs:
            raise ValueError("instance needs at least one job")
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids")
        for j in jobs:
            # Job.__post_init__ already rejects deadline <= arrival, but
            # instances can be built from bypass-constructed or
            # deserialized jobs; a zero-width window makes every density
            # (w / (d - a)) undefined, so fail here with a clear error
            # instead of a ZeroDivisionError deep inside OA/AVR.
            if not (j.deadline - j.arrival > 0.0):
                raise ValueError(
                    f"job {j.job_id}: zero-width window "
                    f"[{j.arrival}, {j.deadline}] — deadline must be "
                    f"strictly after arrival")
        self.jobs: Tuple[Job, ...] = tuple(
            sorted(jobs, key=lambda j: (j.arrival, j.deadline, j.job_id)))

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def is_agreeable(self) -> bool:
        """Agreeable: earlier arrival implies no-later deadline (S4.5).

        Checked over all pairs: if ``a(ti) < a(tj)`` then
        ``d(ti) <= d(tj)``.
        """
        ordered = sorted(self.jobs, key=lambda j: j.arrival)
        max_deadline_so_far = -float("inf")
        previous_arrival: Optional[float] = None
        for job in ordered:
            if previous_arrival is not None \
                    and job.arrival > previous_arrival \
                    and job.deadline < max_deadline_so_far - 1e-12:
                return False
            max_deadline_so_far = max(max_deadline_so_far, job.deadline)
            previous_arrival = job.arrival
        return True

    def scaled(self, factor: float) -> "ProblemInstance":
        """The instance P' with every load multiplied by ``factor``
        (Theorem 4.5's construction)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ProblemInstance([
            Job(j.job_id, j.arrival, j.deadline, j.work * factor)
            for j in self.jobs])

    def load_extremes(self) -> Tuple[float, float]:
        """(w_min, w_max) over the instance."""
        works = [j.work for j in self.jobs]
        return min(works), max(works)

    def c_factor(self) -> float:
        """The paper's ``c = 1 + w_max / w_min`` (Section 4.5)."""
        w_min, w_max = self.load_extremes()
        return 1.0 + w_max / w_min


@dataclass(frozen=True)
class Segment:
    """Constant-speed execution of one job over ``[start, end)``."""

    start: float
    end: float
    speed: float
    job_id: int

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("segment must have positive length")
        if self.speed <= 0:
            raise ValueError("segment speed must be positive")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def work_done(self) -> float:
        return self.speed * self.duration


def coalesce(segments: Sequence[Segment]) -> List[Segment]:
    """Merge back-to-back segments of the same job and speed (both
    matched to 1e-9), in start order."""
    out: List[Segment] = []
    for seg in sorted(segments, key=lambda s: s.start):
        if out:
            last = out[-1]
            if last.job_id == seg.job_id \
                    and abs(last.speed - seg.speed) <= 1e-9 \
                    and abs(last.end - seg.start) <= 1e-9:
                out[-1] = Segment(last.start, seg.end, last.speed,
                                  last.job_id)
                continue
        out.append(seg)
    return out


class Schedule:
    """A speed/job assignment over time; validates against an instance."""

    def __init__(self, segments: Sequence[Segment]):
        self.segments: List[Segment] = sorted(segments,
                                              key=lambda s: (s.start, s.end))

    def energy(self, alpha: float = DEFAULT_ALPHA) -> float:
        """Total energy: sum over segments of ``speed^alpha * duration``."""
        if alpha <= 1:
            raise ValueError("alpha must exceed 1")
        return sum(s.speed ** alpha * s.duration for s in self.segments)

    def max_speed(self) -> float:
        return max((s.speed for s in self.segments), default=0.0)

    def work_by_job(self) -> Dict[int, float]:
        done: Dict[int, float] = {}
        for segment in self.segments:
            done[segment.job_id] = done.get(segment.job_id, 0.0) \
                + segment.work_done
        return done

    # ------------------------------------------------------------------
    def check_feasible(self, instance: ProblemInstance,
                       preemptive: bool = True) -> None:
        """Assert the schedule completes every job within its window.

        Checks: no overlapping segments, each job's segments lie within
        its [arrival, deadline] window, and each job receives exactly
        its work (to relative tolerance).  With ``preemptive=False``,
        additionally asserts each job's execution is one contiguous run.
        """
        by_id = {j.job_id: j for j in instance.jobs}
        prev_end = -float("inf")
        for segment in self.segments:
            assert segment.start >= prev_end - _REL_TOL, \
                f"overlapping segments at {segment.start}"
            prev_end = segment.end
            job = by_id.get(segment.job_id)
            assert job is not None, f"unknown job {segment.job_id}"
            assert segment.start >= job.arrival - _REL_TOL, \
                f"job {job.job_id} runs before arrival"
            assert segment.end <= job.deadline + max(
                _REL_TOL, _REL_TOL * abs(job.deadline)), \
                f"job {job.job_id} runs past deadline " \
                f"({segment.end} > {job.deadline})"
        done = self.work_by_job()
        for job in instance.jobs:
            got = done.get(job.job_id, 0.0)
            assert abs(got - job.work) <= max(1e-9, _REL_TOL * job.work), \
                f"job {job.job_id}: work {got} != {job.work}"
        if not preemptive:
            seen_closed = set()
            last_id: Optional[int] = None
            last_end: Optional[float] = None
            for segment in self.segments:
                if segment.job_id != last_id:
                    assert segment.job_id not in seen_closed, \
                        f"job {segment.job_id} preempted"
                    if last_id is not None:
                        seen_closed.add(last_id)
                    last_id = segment.job_id
                elif last_end is not None:
                    # Same job continuing: must be back-to-back (a speed
                    # change, not a preemption).
                    assert abs(segment.start - last_end) <= _REL_TOL, \
                        f"job {segment.job_id} has a gap (preemption?)"
                last_end = segment.end
