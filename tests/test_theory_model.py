"""Standard-model primitives: jobs, instances, schedules."""

import pytest

from repro.theory.model import Job, ProblemInstance, Schedule, Segment


def test_job_validation():
    with pytest.raises(ValueError):
        Job(1, 1.0, 0.5, 1.0)  # deadline before arrival
    with pytest.raises(ValueError):
        Job(1, 0.0, 1.0, 0.0)  # zero work


def test_job_density_and_window():
    job = Job(1, 1.0, 3.0, 4.0)
    assert job.window == 2.0
    assert job.density == 2.0


def test_instance_sorted_and_validated():
    jobs = [Job(2, 5.0, 6.0, 1.0), Job(1, 0.0, 1.0, 1.0)]
    instance = ProblemInstance(jobs)
    assert [j.job_id for j in instance] == [1, 2]
    with pytest.raises(ValueError):
        ProblemInstance([])
    with pytest.raises(ValueError):
        ProblemInstance([Job(1, 0, 1, 1), Job(1, 0, 1, 1)])


def test_agreeable_detection():
    agreeable = ProblemInstance([
        Job(1, 0.0, 2.0, 1.0), Job(2, 1.0, 3.0, 1.0)])
    assert agreeable.is_agreeable()
    disagreeable = ProblemInstance([
        Job(1, 0.0, 10.0, 1.0), Job(2, 1.0, 2.0, 1.0)])
    assert not disagreeable.is_agreeable()
    # Simultaneous arrivals never violate agreeability.
    simultaneous = ProblemInstance([
        Job(1, 0.0, 10.0, 1.0), Job(2, 0.0, 2.0, 1.0)])
    assert simultaneous.is_agreeable()


def test_scaled_instance():
    instance = ProblemInstance([Job(1, 0.0, 1.0, 2.0)])
    scaled = instance.scaled(3.0)
    assert scaled.jobs[0].work == 6.0
    assert scaled.jobs[0].deadline == 1.0
    with pytest.raises(ValueError):
        instance.scaled(0.0)


def test_c_factor():
    instance = ProblemInstance([
        Job(1, 0.0, 1.0, 10.0), Job(2, 0.0, 1.0, 0.1)])
    assert instance.c_factor() == pytest.approx(1.0 + 100.0)
    assert instance.load_extremes() == (0.1, 10.0)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(1.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        Segment(0.0, 1.0, 0.0, 1)


def test_schedule_energy():
    schedule = Schedule([Segment(0.0, 2.0, 3.0, 1)])
    assert schedule.energy(alpha=3.0) == pytest.approx(54.0)
    assert schedule.max_speed() == 3.0
    with pytest.raises(ValueError):
        schedule.energy(alpha=1.0)


def test_schedule_work_by_job():
    schedule = Schedule([
        Segment(0.0, 1.0, 2.0, 1),
        Segment(1.0, 2.0, 1.0, 2),
        Segment(2.0, 3.0, 1.0, 1),
    ])
    assert schedule.work_by_job() == {1: 3.0, 2: 1.0}


def test_feasibility_accepts_valid_schedule():
    instance = ProblemInstance([Job(1, 0.0, 2.0, 2.0)])
    Schedule([Segment(0.0, 2.0, 1.0, 1)]).check_feasible(instance)


def test_feasibility_rejects_missed_deadline():
    instance = ProblemInstance([Job(1, 0.0, 2.0, 2.0)])
    bad = Schedule([Segment(0.0, 4.0, 0.5, 1)])
    with pytest.raises(AssertionError):
        bad.check_feasible(instance)


def test_feasibility_rejects_early_start():
    instance = ProblemInstance([Job(1, 1.0, 3.0, 2.0)])
    bad = Schedule([Segment(0.0, 2.0, 1.0, 1)])
    with pytest.raises(AssertionError):
        bad.check_feasible(instance)


def test_feasibility_rejects_wrong_work():
    instance = ProblemInstance([Job(1, 0.0, 2.0, 2.0)])
    bad = Schedule([Segment(0.0, 1.0, 1.0, 1)])
    with pytest.raises(AssertionError):
        bad.check_feasible(instance)


def test_feasibility_rejects_overlap():
    instance = ProblemInstance([
        Job(1, 0.0, 2.0, 1.0), Job(2, 0.0, 2.0, 1.0)])
    bad = Schedule([Segment(0.0, 1.0, 1.0, 1), Segment(0.5, 1.5, 1.0, 2)])
    with pytest.raises(AssertionError):
        bad.check_feasible(instance)


def test_nonpreemptive_check_rejects_preemption():
    instance = ProblemInstance([
        Job(1, 0.0, 4.0, 2.0), Job(2, 0.0, 4.0, 1.0)])
    preempted = Schedule([
        Segment(0.0, 1.0, 1.0, 1),
        Segment(1.0, 2.0, 1.0, 2),
        Segment(2.0, 3.0, 1.0, 1),
    ])
    preempted.check_feasible(instance, preemptive=True)  # fine if allowed
    with pytest.raises(AssertionError):
        preempted.check_feasible(instance, preemptive=False)


def test_nonpreemptive_check_allows_speed_changes():
    instance = ProblemInstance([Job(1, 0.0, 3.0, 3.0)])
    stepped = Schedule([
        Segment(0.0, 1.0, 2.0, 1),
        Segment(1.0, 2.0, 1.0, 1),  # same job, back-to-back
    ])
    stepped.check_feasible(instance, preemptive=False)
