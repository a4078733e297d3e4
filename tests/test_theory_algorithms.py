"""YDS, OA, and idealized POLARIS: correctness and competitive claims."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.theory.instances import (
    adversarial_pair, random_agreeable_instance, random_instance,
)
from repro.theory.model import Job, ProblemInstance, Schedule, Segment
from repro.theory.oa import oa_schedule
from repro.theory.polaris_ideal import polaris_ideal_schedule
from repro.theory.yds import yds_energy, yds_schedule, yds_speed_profile

ALPHA = 3.0


# ----------------------------------------------------------------------
# YDS
# ----------------------------------------------------------------------
def test_yds_single_job_runs_at_density():
    instance = ProblemInstance([Job(1, 0.0, 4.0, 2.0)])
    profile = yds_speed_profile(instance)
    assert profile == [(0.0, 4.0, pytest.approx(0.5))]
    schedule = yds_schedule(instance)
    schedule.check_feasible(instance)
    assert schedule.energy(ALPHA) == pytest.approx(4.0 * 0.5 ** 3)


def test_yds_two_disjoint_jobs():
    instance = ProblemInstance([
        Job(1, 0.0, 1.0, 1.0), Job(2, 5.0, 7.0, 1.0)])
    profile = sorted(yds_speed_profile(instance))
    assert profile[0] == (0.0, 1.0, pytest.approx(1.0))
    assert profile[1] == (5.0, 7.0, pytest.approx(0.5))


def test_yds_nested_critical_interval():
    """A dense inner job carves its interval out of an enclosing job's
    window; the outer job stretches over what remains."""
    instance = ProblemInstance([
        Job(1, 0.0, 10.0, 4.0),    # lazy outer job
        Job(2, 4.0, 5.0, 3.0),     # intense inner job
    ])
    profile = sorted(yds_speed_profile(instance))
    # Critical interval [4,5] at speed 3; the outer job spreads its 4
    # units over the remaining 9 seconds at speed 4/9.
    inner = [p for p in profile if p[2] > 1.0]
    assert inner == [(4.0, 5.0, pytest.approx(3.0))]
    outer_speed = 4.0 / 9.0
    for start, end, speed in profile:
        if (start, end) != (4.0, 5.0):
            assert speed == pytest.approx(outer_speed)
    schedule = yds_schedule(instance)
    schedule.check_feasible(instance)


def test_yds_same_window_jobs_pool():
    instance = ProblemInstance([
        Job(1, 0.0, 2.0, 1.0), Job(2, 0.0, 2.0, 1.0)])
    profile = yds_speed_profile(instance)
    assert profile == [(0.0, 2.0, pytest.approx(1.0))]


def test_yds_theorem_4_5_scaling():
    """Pow[YDS(P')] = c^alpha * Pow[YDS(P)] when loads scale by c."""
    rng = random.Random(0)
    for _ in range(5):
        instance = random_instance(10, rng)
        c = 1.0 + rng.random() * 3.0
        base = yds_energy(instance, ALPHA)
        scaled = yds_energy(instance.scaled(c), ALPHA)
        assert scaled == pytest.approx(c ** ALPHA * base, rel=1e-6)


def test_yds_beats_naive_feasible_schedules():
    """YDS energy is minimal: compare against a constant-speed EDF
    schedule that finishes every job exactly at its own deadline."""
    rng = random.Random(1)
    for _ in range(5):
        instance = random_instance(8, rng)
        y = yds_energy(instance, ALPHA)
        oa = oa_schedule(instance)
        oa.check_feasible(instance)
        assert y <= oa.energy(ALPHA) + 1e-9


def test_yds_feasible_on_random_instances():
    rng = random.Random(2)
    for _ in range(10):
        instance = random_instance(15, rng)
        schedule = yds_schedule(instance)
        schedule.check_feasible(instance)


def test_yds_feasible_on_agreeable_instances():
    rng = random.Random(3)
    for _ in range(10):
        instance = random_agreeable_instance(12, rng)
        yds_schedule(instance).check_feasible(instance)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.1, max_value=5.0)),
    min_size=1, max_size=8))
def test_property_yds_always_feasible(params):
    jobs = [Job(i + 1, a, a + window, work)
            for i, (a, window, work) in enumerate(params)]
    instance = ProblemInstance(jobs)
    schedule = yds_schedule(instance)
    schedule.check_feasible(instance)
    # Energy from the profile and from the packed schedule agree.
    assert schedule.energy(ALPHA) == pytest.approx(
        yds_energy(instance, ALPHA), rel=1e-6)


# ----------------------------------------------------------------------
# OA
# ----------------------------------------------------------------------
def test_oa_equals_yds_for_simultaneous_arrivals():
    """With one arrival instant, OA's staircase IS the YDS schedule."""
    instance = ProblemInstance([
        Job(1, 0.0, 1.0, 2.0), Job(2, 0.0, 4.0, 1.0)])
    oa = oa_schedule(instance)
    oa.check_feasible(instance)
    assert oa.energy(ALPHA) == pytest.approx(
        yds_energy(instance, ALPHA), rel=1e-9)


def test_oa_preempts_for_urgent_arrival():
    """d(t_new) < d(t_r): OA switches to the new job immediately."""
    instance = ProblemInstance([
        Job(1, 0.0, 10.0, 5.0),
        Job(2, 1.0, 2.0, 0.5),
    ])
    oa = oa_schedule(instance)
    oa.check_feasible(instance)
    running_at = {}
    for segment in oa.segments:
        if segment.start <= 1.0 < segment.end or segment.start == 1.0:
            running_at[segment.start] = segment.job_id
    # Job 2 runs in (1, 2) even though job 1 started first.
    in_window = [s for s in oa.segments
                 if s.start >= 1.0 and s.end <= 2.0 and s.job_id == 2]
    assert in_window, "OA did not preempt for the urgent job"


def test_oa_competitive_bound_on_random_instances():
    rng = random.Random(4)
    bound = ALPHA ** ALPHA
    for _ in range(10):
        instance = random_instance(10, rng)
        ratio = oa_schedule(instance).energy(ALPHA) \
            / yds_energy(instance, ALPHA)
        assert 1.0 - 1e-9 <= ratio <= bound


# ----------------------------------------------------------------------
# Idealized POLARIS
# ----------------------------------------------------------------------
def test_polaris_is_nonpreemptive_and_feasible():
    rng = random.Random(5)
    for _ in range(10):
        instance = random_instance(10, rng)
        schedule = polaris_ideal_schedule(instance)
        schedule.check_feasible(instance, preemptive=False)


def test_polaris_equals_oa_on_agreeable(trials=8):
    """Theorem 4.3 via Lemma 4.1: identical behavior, hence energy."""
    rng = random.Random(6)
    for _ in range(trials):
        instance = random_agreeable_instance(10, rng)
        p = polaris_ideal_schedule(instance).energy(ALPHA)
        o = oa_schedule(instance).energy(ALPHA)
        assert p == pytest.approx(o, rel=1e-9)


def test_polaris_speeds_up_for_urgent_arrival():
    """Lemma 4.2: POLARIS keeps running t_r but raises the speed so
    both t_r and the urgent t_new finish by t_new's deadline."""
    instance = ProblemInstance([
        Job(1, 0.0, 10.0, 5.0),   # would run at 0.5 alone
        Job(2, 1.0, 2.0, 0.5),
    ])
    schedule = polaris_ideal_schedule(instance)
    schedule.check_feasible(instance, preemptive=False)
    # After t=1, job 1 still runs (non-preemption) but at the speed
    # needed to fit both into [1, 2]: (4.5 + 0.5) / 1 = 5.
    seg_after = [s for s in schedule.segments
                 if s.job_id == 1 and s.start >= 1.0]
    assert seg_after and seg_after[0].speed == pytest.approx(5.0)
    # Job 2 then runs to completion before its deadline.
    job2 = [s for s in schedule.segments if s.job_id == 2]
    assert job2 and job2[-1].end <= 2.0 + 1e-9


def test_polaris_bounded_by_corollary_4_6():
    rng = random.Random(7)
    for _ in range(10):
        instance = random_instance(8, rng)
        ratio = polaris_ideal_schedule(instance).energy(ALPHA) \
            / yds_energy(instance, ALPHA)
        bound = (instance.c_factor() * ALPHA) ** ALPHA
        assert ratio <= bound


def test_adversarial_pair_exhibits_c_alpha_blowup():
    instance = adversarial_pair()
    ratio = polaris_ideal_schedule(instance).energy(ALPHA) \
        / yds_energy(instance, ALPHA)
    c_alpha = instance.c_factor() ** ALPHA
    assert ratio > 0.2 * c_alpha      # the blow-up is real
    assert ratio <= (instance.c_factor() * ALPHA) ** ALPHA


# ----------------------------------------------------------------------
# Instance generators
# ----------------------------------------------------------------------
def test_agreeable_generator_produces_agreeable():
    rng = random.Random(8)
    for _ in range(20):
        assert random_agreeable_instance(10, rng).is_agreeable()


def test_random_instance_shape():
    rng = random.Random(9)
    instance = random_instance(25, rng)
    assert len(instance) == 25
    with pytest.raises(ValueError):
        random_instance(0, rng)
