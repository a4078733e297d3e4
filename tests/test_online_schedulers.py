"""The arena's online schedulers: qOA, AVR-online, nonclairvoyant.

The agreement tests run each scheduler on single-core idealized
instances --- every job arrived, estimator primed so the inferred work
is exact, a dense (quasi-continuous) frequency grid, zero transition
latency --- and require the continuous target to match the
``repro.theory`` oracle and the selection to be its relation-L round.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.online import AvrScheduler, QoaScheduler
from repro.core.request import Request
from repro.core.workload import Workload
from repro.cpu.pstates import POLARIS_FREQUENCIES
from repro.governors.nonclairvoyant import NonclairvoyantScheduler
from repro.theory.avr import avr_speed_profile
from repro.theory.model import Job, ProblemInstance
from repro.theory.oa import oa_schedule

#: Quasi-continuous grid: 0.05 GHz steps up to 12 GHz.
DENSE_GRID = tuple(round(0.05 * i, 2) for i in range(1, 241))


def _make_request(job: Job) -> Request:
    workload = Workload(name=f"j{job.job_id}",
                        latency_target=job.deadline - job.arrival)
    return Request(workload, txn_type="txn", arrival_time=job.arrival,
                   work=job.work, deadline=job.deadline)


def _primed_scheduler(cls, instance: ProblemInstance, grid=DENSE_GRID):
    """Scheduler with every job queued and the estimator primed so
    ``estimate(c, f_max) * f_max`` equals the job's work exactly."""
    estimator = ExecutionTimeEstimator()
    f_max = grid[-1]
    scheduler = cls(grid, estimator)
    for job in instance.jobs:
        estimator.prime(f"j{job.job_id}", f_max, job.work / f_max)
        scheduler.enqueue(_make_request(job))
    return scheduler


def _jobs_at_zero(seed: int, n: int):
    rng = random.Random(seed)
    return ProblemInstance([
        Job(i + 1, 0.0, rng.uniform(1.0, 20.0), rng.uniform(0.5, 5.0))
        for i in range(n)])


# ----------------------------------------------------------------------
# Oracle agreement on idealized instances
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=8))
def test_qoa_agrees_with_oa_oracle(seed, n):
    instance = _jobs_at_zero(seed, n)
    scheduler = _primed_scheduler(QoaScheduler, instance)
    target = scheduler._target_speed(0.0, None, 0.0)
    # All jobs share arrival 0, so OA's first executed segment runs at
    # the first staircase group's density --- the speed OA commits to
    # before any replan, which is what the online scheduler must match.
    oracle = oa_schedule(instance).segments[0].speed
    assert target == pytest.approx(oracle, rel=1e-9)
    selected = scheduler.select_frequency(0.0, None)
    assert selected == scheduler._relation_l(target)
    assert selected >= min(target, DENSE_GRID[-1]) - 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=8))
def test_avr_online_agrees_with_avr_oracle(seed, n):
    instance = _jobs_at_zero(seed, n)
    scheduler = _primed_scheduler(AvrScheduler, instance)
    target = scheduler._target_speed(0.0, None, 0.0)
    # First profile slot starts at the shared arrival: its speed is the
    # full density sum, exactly the accumulator's target.
    oracle = avr_speed_profile(instance)[0][2]
    assert target == pytest.approx(oracle, rel=1e-9)
    selected = scheduler.select_frequency(0.0, None)
    assert selected == scheduler._relation_l(target)


# ----------------------------------------------------------------------
# Discrete-grid behaviour (the paper's P-state ladder)
# ----------------------------------------------------------------------
def test_qoa_relation_l_on_pstate_grid():
    instance = ProblemInstance([Job(1, 0.0, 0.5, 1.1)])  # density 2.2 GHz
    scheduler = _primed_scheduler(QoaScheduler, instance,
                                  grid=POLARIS_FREQUENCIES)
    assert scheduler.select_frequency(0.0, None) == 2.4


def test_qoa_exact_grid_density_does_not_round_up():
    instance = ProblemInstance([Job(1, 0.0, 0.5, 1.0)])  # density 2.0 GHz
    scheduler = _primed_scheduler(QoaScheduler, instance,
                                  grid=POLARIS_FREQUENCIES)
    assert scheduler.select_frequency(0.0, None) == 2.0


def test_online_schedulers_run_flat_out_when_late():
    instance = ProblemInstance([Job(1, 0.0, 1.0, 0.1)])
    for cls in (QoaScheduler, AvrScheduler):
        scheduler = _primed_scheduler(cls, instance,
                                      grid=POLARIS_FREQUENCIES)
        # Past the deadline the plan's density is infinite: line-14
        # behaviour, run flat out.
        assert scheduler.select_frequency(2.0, None) == \
            POLARIS_FREQUENCIES[-1]


def test_online_schedulers_idle_at_floor_and_panic_at_max():
    estimator = ExecutionTimeEstimator()
    for cls in (QoaScheduler, AvrScheduler, NonclairvoyantScheduler):
        scheduler = cls(POLARIS_FREQUENCIES, estimator)
        assert scheduler.select_frequency(0.0, None) == \
            POLARIS_FREQUENCIES[0]
        scheduler.panic = True
        assert scheduler.select_frequency(0.0, None) == \
            POLARIS_FREQUENCIES[-1]


# ----------------------------------------------------------------------
# Nonclairvoyant: estimator-free by construction
# ----------------------------------------------------------------------
def test_nonclairvoyant_scales_with_active_count():
    # f_min * n^(1/3): n=1 -> 1.2; n=8 -> 2.4; n=64 -> 4.8 (capped 2.8).
    scheduler = NonclairvoyantScheduler(POLARIS_FREQUENCIES, estimator=None)
    jobs = [Job(i + 1, 0.0, 1000.0, 1.0) for i in range(64)]
    for count, expected in ((1, 1.2), (8, 2.4), (64, 2.8)):
        while len(scheduler.queue) < count:
            scheduler.enqueue(_make_request(jobs[len(scheduler.queue)]))
        assert scheduler.select_frequency(0.0, None) == expected


def test_nonclairvoyant_escalates_on_queue_age():
    scheduler = NonclairvoyantScheduler(POLARIS_FREQUENCIES, estimator=None)
    scheduler.enqueue(_make_request(Job(1, 0.0, 10.0, 1.0)))
    assert scheduler.select_frequency(1.0, None) == 1.2
    # Past 75% of the request's own window: flat out.
    assert scheduler.select_frequency(8.0, None) == POLARIS_FREQUENCIES[-1]


def test_nonclairvoyant_never_touches_estimator():
    estimator = ExecutionTimeEstimator()
    scheduler = NonclairvoyantScheduler(POLARIS_FREQUENCIES, estimator)
    request = _make_request(Job(1, 0.0, 10.0, 1.0))
    scheduler.enqueue(request)
    scheduler.select_frequency(0.5, None)
    popped = scheduler.next_request()
    popped.dispatch_time = 0.5
    popped.dispatch_freq = 2.8
    popped.finish_time = 1.0
    scheduler.record_completion(popped)
    assert estimator.pairs() == []
    assert estimator.estimate("j1", 2.8) == 0.0
