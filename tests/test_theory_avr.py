"""AVR: the density-sum online algorithm."""

import random

import pytest

from repro.theory.avr import avr_schedule, avr_speed_profile
from repro.theory.instances import random_instance
from repro.theory.model import Job, ProblemInstance
from repro.theory.yds import yds_energy

ALPHA = 3.0


def avr_energy(instance, alpha):
    """AVR energy straight from the density-sum profile: the oracle the
    schedule's own energy is checked against."""
    return sum((end - start) * speed ** alpha
               for start, end, speed in avr_speed_profile(instance))


def test_profile_sums_densities():
    instance = ProblemInstance([
        Job(1, 0.0, 4.0, 2.0),   # density 0.5 over [0, 4]
        Job(2, 1.0, 3.0, 1.0),   # density 0.5 over [1, 3]
    ])
    profile = avr_speed_profile(instance)
    assert profile == [
        (0.0, 1.0, pytest.approx(0.5)),
        (1.0, 3.0, pytest.approx(1.0)),
        (3.0, 4.0, pytest.approx(0.5)),
    ]


def test_single_job_matches_yds():
    instance = ProblemInstance([Job(1, 0.0, 2.0, 3.0)])
    assert avr_energy(instance, ALPHA) == pytest.approx(
        yds_energy(instance, ALPHA))


def test_avr_feasible_on_random_instances():
    rng = random.Random(0)
    for _ in range(10):
        instance = random_instance(12, rng)
        schedule = avr_schedule(instance)
        schedule.check_feasible(instance)
        assert schedule.energy(ALPHA) == pytest.approx(
            avr_energy(instance, ALPHA), rel=1e-6)


def test_avr_within_its_competitive_bound():
    rng = random.Random(1)
    bound = 2 ** (ALPHA - 1) * ALPHA ** ALPHA
    for _ in range(10):
        instance = random_instance(10, rng)
        ratio = avr_energy(instance, ALPHA) / yds_energy(instance, ALPHA)
        assert 1.0 - 1e-9 <= ratio <= bound


def test_avr_weaker_than_oa_on_staggered_instance():
    """The classic AVR pathology: overlapping windows make it stack
    densities where smarter planning would flatten them."""
    jobs = [Job(i + 1, float(i), float(i) + 10.0, 1.0) for i in range(10)]
    instance = ProblemInstance(jobs)
    from repro.theory.oa import oa_schedule
    avr = avr_energy(instance, ALPHA)
    oa = oa_schedule(instance).energy(ALPHA)
    yds = yds_energy(instance, ALPHA)
    assert avr >= oa - 1e-9 >= yds - 1e-9
