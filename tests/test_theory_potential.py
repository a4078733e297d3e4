"""Appendix C: the potential-function proof of Theorem 4.4, checked
numerically along simulated POLARIS/YDS trajectories."""

import random

import pytest

from repro.theory import instances
from repro.theory.instances import (
    adversarial_pair, random_agreeable_instance, random_instance,
)
from repro.theory.model import Job, ProblemInstance
from repro.theory.polaris_ideal import polaris_ideal_schedule
from repro.theory.potential import (
    phi, remaining_at, speed_at, verify_theorem_4_4,
)
from repro.theory.yds import yds_schedule

ALPHA = 3.0


def test_remaining_at_reconstruction():
    instance = ProblemInstance([Job(1, 0.0, 4.0, 2.0)])
    schedule = yds_schedule(instance)  # runs at 0.5 over [0, 4]
    assert remaining_at(schedule, instance, -1.0) == {}
    assert remaining_at(schedule, instance, 0.0)[1] == pytest.approx(2.0)
    assert remaining_at(schedule, instance, 2.0)[1] == pytest.approx(1.0)
    assert remaining_at(schedule, instance, 4.0) == {}


def test_speed_at():
    instance = ProblemInstance([Job(1, 0.0, 4.0, 2.0)])
    schedule = yds_schedule(instance)
    assert speed_at(schedule, 1.0) == pytest.approx(0.5)
    assert speed_at(schedule, 5.0) == 0.0


def test_phi_zero_with_no_pending_work():
    instance = ProblemInstance([Job(1, 1.0, 2.0, 1.0)])
    scaled = instance.scaled(instance.c_factor())
    polaris = polaris_ideal_schedule(instance)
    yds = yds_schedule(scaled)
    assert phi(0.5, instance, scaled, polaris, yds, ALPHA) == 0.0
    assert phi(10.0, instance, scaled, polaris, yds, ALPHA) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_appendix_c_claims_on_arbitrary_instances(seed):
    rng = random.Random(seed)
    check = verify_theorem_4_4(random_instance(6, rng), alpha=ALPHA)
    assert abs(check.claim1_boundary_values[0]) < 1e-9
    assert abs(check.claim1_boundary_values[1]) < 1e-9
    assert check.claim2_max_event_jump < 1e-6
    assert check.claim3_max_violation < 1e-6
    assert check.theorem_4_4_holds
    assert check.all_claims_hold
    assert check.drift_samples > 0


@pytest.mark.parametrize("seed", [4, 5])
def test_appendix_c_claims_on_agreeable_instances(seed):
    rng = random.Random(seed)
    check = verify_theorem_4_4(random_agreeable_instance(6, rng),
                               alpha=ALPHA)
    assert check.all_claims_hold


def test_appendix_c_on_adversarial_pair(monkeypatch):
    """The lemma the proof leans on hardest: the earliest-deadline
    arrival case, where POLARIS's queue swaps the running job against
    t_new + t'_cur with c * w(t_new) >= w(t_new) + w(t_cur)."""
    monkeypatch.setattr(instances, "W_MAX", 4.0)
    monkeypatch.setattr(instances, "W_MIN", 1.0)
    check = verify_theorem_4_4(adversarial_pair(), alpha=ALPHA)
    assert check.all_claims_hold
    assert check.c_factor == pytest.approx(5.0)


def test_theorem_4_4_with_other_alpha():
    rng = random.Random(9)
    check = verify_theorem_4_4(random_instance(5, rng), alpha=2.0)
    assert check.all_claims_hold


def test_energy_accounting_matches_schedules():
    rng = random.Random(11)
    instance = random_instance(6, rng)
    check = verify_theorem_4_4(instance, alpha=ALPHA)
    assert check.energy_polaris == pytest.approx(
        polaris_ideal_schedule(instance).energy(ALPHA), rel=1e-9)
    scaled = instance.scaled(instance.c_factor())
    assert check.energy_yds_scaled == pytest.approx(
        yds_schedule(scaled).energy(ALPHA), rel=1e-9)
