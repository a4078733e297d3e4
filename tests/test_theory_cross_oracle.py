"""Cross-oracle property suite + regressions for the oracle bugfixes.

Three oracles over the same instances: YDS (offline optimal), OA and
AVR (online).  The invariants that must hold on *every* feasible
instance: both online schedules complete all work by its deadline, and
neither beats the offline optimum on energy.  The regression tests pin
the two bugs this arena promotion surfaced: OA silently dropping the
work of a tight-deadline arrival (infinite-density staircase group),
and AVR/ProblemInstance blowing up on degenerate windows.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.theory.avr import avr_schedule, avr_speed_profile
from repro.theory.instances import random_instance
from repro.theory.model import Job, ProblemInstance
from repro.theory.oa import oa_schedule
from repro.theory.yds import yds_energy

ALPHA = 3.0


# ----------------------------------------------------------------------
# Regression: OA dropped the work of infinite-density groups
# ----------------------------------------------------------------------
def test_oa_completes_late_tight_deadline_arrival():
    """A job whose deadline is within tolerance of its own arrival hits
    the infinite-density branch of ``_staircase_plan``; before the fix
    its executed segment had zero width and the work vanished from the
    schedule."""
    instance = ProblemInstance([
        Job(1, 0.0, 10.0, 4.0),
        Job(2, 5.0, 5.0 + 1e-13, 1.0),  # due the instant it arrives
    ])
    schedule = oa_schedule(instance)
    done = schedule.work_by_job()
    assert done[2] == pytest.approx(1.0, rel=1e-6)
    assert sum(done.values()) == pytest.approx(5.0, rel=1e-6)
    schedule.check_feasible(instance)
    assert math.isfinite(schedule.energy(ALPHA))


def test_oa_inf_group_does_not_drag_staircase_backwards():
    """The group after an at/behind-start deadline must plan from the
    current start, not from the stale deadline --- otherwise its horizon
    inflates and its speed drops below feasibility."""
    instance = ProblemInstance([
        Job(1, 0.0, 10.0, 4.0),
        Job(2, 5.0, 5.0 + 1e-13, 1.0),
        Job(3, 5.0, 6.0, 2.0),  # needs density 2.0 from t=5, not less
    ])
    schedule = oa_schedule(instance)
    schedule.check_feasible(instance)
    assert sum(schedule.work_by_job().values()) == pytest.approx(
        7.0, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=10))
def test_oa_completes_all_work_under_tight_arrivals(seed, n):
    """Random instance plus one due-now arrival: no work may be lost."""
    rng = random.Random(seed)
    base = random_instance(n, rng)
    t = max(j.arrival for j in base.jobs)
    jobs = list(base.jobs) + [Job(n + 1, t, t + 1e-13,
                                  rng.uniform(0.5, 2.0))]
    instance = ProblemInstance(jobs)
    done = oa_schedule(instance).work_by_job()
    for job in instance.jobs:
        assert done.get(job.job_id, 0.0) == pytest.approx(job.work, rel=1e-6)


# ----------------------------------------------------------------------
# Regression: degenerate windows in AVR / ProblemInstance
# ----------------------------------------------------------------------
def _forged_job(job_id: int, arrival: float, deadline: float,
                work: float) -> Job:
    """A Job built past ``__post_init__`` validation, standing in for
    deserialized/corrupt inputs."""
    job = object.__new__(Job)
    object.__setattr__(job, "job_id", job_id)
    object.__setattr__(job, "arrival", arrival)
    object.__setattr__(job, "deadline", deadline)
    object.__setattr__(job, "work", work)
    return job


def test_job_rejects_zero_width_window():
    with pytest.raises(ValueError, match="deadline"):
        Job(1, 5.0, 5.0, 1.0)


def test_instance_rejects_forged_zero_width_window():
    """Before the fix this only surfaced later, as a ZeroDivisionError
    inside ``avr_speed_profile`` (``j.density`` with ``d == a``)."""
    jobs = [Job(1, 0.0, 10.0, 2.0), _forged_job(2, 5.0, 5.0, 1.0)]
    with pytest.raises(ValueError, match="zero-width window"):
        ProblemInstance(jobs)


def test_avr_live_predicate_excludes_point_deadline_jobs():
    """A sub-tolerance window satisfies both tolerance-padded endpoint
    tests for slots it cannot occupy; the guard keeps its near-infinite
    density out of the accumulator."""
    instance = ProblemInstance([
        Job(1, 0.0, 10.0, 5.0),          # density 0.5 over [0, 10]
        Job(2, 5.0, 5.0 + 1e-13, 1.0),   # point-deadline, density 1e13
    ])
    profile = avr_speed_profile(instance)
    assert profile, "profile must cover the wide job"
    for _start, _end, speed in profile:
        assert speed == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Cross-oracle energy and feasibility invariants
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=12))
def test_oa_feasible_and_no_cheaper_than_yds(seed, n):
    instance = random_instance(n, random.Random(seed))
    schedule = oa_schedule(instance)
    schedule.check_feasible(instance)
    assert schedule.energy(ALPHA) >= yds_energy(instance, ALPHA) * (1 - 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=12))
def test_avr_feasible_and_no_cheaper_than_yds(seed, n):
    instance = random_instance(n, random.Random(seed))
    schedule = avr_schedule(instance)
    schedule.check_feasible(instance)
    assert schedule.energy(ALPHA) >= \
        yds_energy(instance, ALPHA) * (1 - 1e-9)
