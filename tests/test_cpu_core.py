"""The DVFS-capable core: execution timing, mid-run scaling, accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import Request
from repro.core.workload import Workload
from repro.cpu.core import Core
from repro.cpu.cstates import CStateModel, DEEP_LADDER
from repro.cpu.pstates import PStateTable
from repro.db.server import DatabaseServer, ServerConfig
from repro.sim.engine import Simulator


def make_core(sim, freq=2.8, **kwargs):
    table = PStateTable.from_frequencies([1.2, 1.4, 1.6, 2.0, 2.4, 2.8])
    return Core(sim, 0, table, initial_freq=freq, **kwargs)


class Job:
    """Stand-in transaction: the core reads only ``work`` (giga-cycles)."""

    def __init__(self, work):
        self.work = work


def start(sim, core, work):
    """Start a job of ``work`` giga-cycles now; the returned list gets
    its run time (completion ``sim.now`` minus start) when it finishes."""
    started = sim.now
    elapsed = []
    core.start_job(Job(work), lambda job: elapsed.append(sim.now - started))
    return elapsed


def test_job_duration_scales_inversely_with_frequency(sim):
    for freq in (1.2, 2.0, 2.8):
        core = make_core(sim, freq=freq)
        elapsed = start(sim, core, 5.6e-3)
        sim.run()
        assert elapsed == [pytest.approx(5.6e-3 / freq)]


def test_mid_run_speedup_shortens_completion(sim):
    core = make_core(sim, freq=1.4)
    elapsed = start(sim, core, 2.8e-3)  # 2 ms at 1.4 GHz
    sim.schedule(0.5e-3, lambda: core.set_frequency(2.8))
    sim.run()
    # 0.5 ms at 1.4 (0.7 Gcycles done), 2.1 remaining at 2.8 = 0.75 ms.
    assert elapsed == [pytest.approx(0.5e-3 + 0.75e-3)]


def test_mid_run_slowdown_stretches_completion(sim):
    core = make_core(sim, freq=2.8)
    elapsed = start(sim, core, 2.8e-3)  # 1 ms at 2.8
    sim.schedule(0.5e-3, lambda: core.set_frequency(1.4))
    sim.run()
    # 1.4 Gcycles done, 1.4 left at 1.4 GHz = 1 ms more.
    assert elapsed == [pytest.approx(1.5e-3)]


def test_multiple_frequency_changes_conserve_work(sim):
    core = make_core(sim, freq=2.8)
    elapsed = start(sim, core, 2.8e-3)
    sim.schedule(0.2e-3, lambda: core.set_frequency(1.2))
    sim.schedule(0.6e-3, lambda: core.set_frequency(2.0))
    sim.schedule(0.9e-3, lambda: core.set_frequency(2.8))
    sim.run()
    # Work executed: 0.2ms*2.8 + 0.4ms*1.2 + 0.3ms*2.0 = 1.64 Gc;
    # remaining 1.16 Gc at 2.8 = 0.4142857 ms after t=0.9 ms.
    assert elapsed == [pytest.approx(0.9e-3 + 1.16e-3 / 2.8)]


def test_setting_same_frequency_is_noop(sim):
    core = make_core(sim)
    core.set_frequency(2.8)
    assert core.freq_transitions == 0


def test_frequency_must_be_on_grid(sim):
    core = make_core(sim)
    with pytest.raises(ValueError):
        core.set_frequency(2.5)


def test_busy_core_rejects_second_job(sim):
    core = make_core(sim)
    core.start_job(Job(1.0))
    with pytest.raises(RuntimeError):
        core.start_job(Job(1.0))


def test_energy_integration_busy_and_idle(sim):
    core = make_core(sim, freq=2.8)
    active = core.power_model.active_power(2.8)
    idle = core.power_model.idle_power(2.8)
    core.start_job(Job(2.8))  # exactly 1 s at 2.8 GHz
    sim.run()
    assert core.energy_at(1.0) == pytest.approx(active * 1.0)
    # One second of idle afterwards.
    assert core.energy_at(2.0) == pytest.approx(active + idle)


def test_energy_split_across_frequencies(sim):
    core = make_core(sim, freq=1.2)
    p12 = core.power_model.active_power(1.2)
    p28 = core.power_model.active_power(2.8)
    core.start_job(Job(1.2 * 1.0 + 2.8 * 0.5))  # 1 s at 1.2 then 0.5 s at 2.8
    sim.schedule(1.0, lambda: core.set_frequency(2.8))
    sim.run()
    assert sim.now == pytest.approx(1.5)
    assert core.energy_at(1.5) == pytest.approx(p12 * 1.0 + p28 * 0.5)


def test_busy_seconds_accounting(sim):
    core = make_core(sim)
    core.start_job(Job(2.8))  # 1 s
    sim.run()
    assert core.busy_seconds_at(sim.now) == pytest.approx(1.0)
    assert core.busy_seconds_at(sim.now + 5.0) == pytest.approx(1.0)
    core.start_job(Job(1.4))  # 0.5 s more
    sim.run()
    assert core.busy_seconds_at(sim.now) == pytest.approx(1.5)


def test_busy_seconds_includes_open_segment(sim):
    core = make_core(sim)
    core.start_job(Job(28.0))  # 10 s job
    sim.schedule(2.0, sim.stop)
    sim.run()
    assert core.busy_seconds_at(2.0) == pytest.approx(2.0)


def test_freq_residency(sim):
    core = make_core(sim, freq=1.2)
    core.start_job(Job(1.2))  # 1 s at 1.2
    sim.run()
    core.set_frequency(2.8)
    sim.schedule(1.0, lambda: None)
    sim.run()
    core.flush_accounting()
    assert core.freq_residency[1.2] == pytest.approx(1.0)
    assert core.freq_residency[2.8] == pytest.approx(1.0)


def test_transition_latency_stalls_job(sim):
    core = make_core(sim, freq=1.4, transition_latency=100e-6)
    elapsed = start(sim, core, 2.8e-3)
    sim.schedule(0.5e-3, lambda: core.set_frequency(2.8))
    sim.run()
    assert elapsed == [pytest.approx(0.5e-3 + 100e-6 + 0.75e-3)]


def test_wake_latency_after_deep_idle(sim):
    core = make_core(sim, cstates=CStateModel(DEEP_LADDER))
    sim.schedule(1.0, lambda: core.start_job(Job(2.8e-3)))
    sim.run()
    # 1 s idle reaches C6 (133 us wake) before the 1 ms job.
    assert sim.now == pytest.approx(1.0 + 133e-6 + 1e-3)


def test_running_elapsed(sim):
    core = make_core(sim)
    assert core.running_elapsed() == 0.0
    sim.schedule(1.0, lambda: core.start_job(Job(28.0)))
    sim.schedule(4.0, sim.stop)
    sim.run()
    assert core.running_elapsed() == pytest.approx(3.0)


def test_job_records_dispatch_freq(sim):
    """The worker stamps ``dispatch_freq`` with the core's frequency at
    dispatch; a change while the request runs does not rewrite it."""
    server = DatabaseServer(sim, ServerConfig(workers=1), initial_freq=2.0)
    core = server.cores[0]
    request = Request(Workload("w", 1.0), "t", 0.0, 2.0e-3)
    server.submit(request)
    sim.schedule(0.5e-3, lambda: core.set_frequency(2.8))
    sim.run()
    assert request.dispatch_freq == 2.0
    assert core.freq == 2.8 and not request.single_freq


def test_core_writes_nothing_onto_the_job(sim):
    core = make_core(sim)
    job = Job(2.8e-3)
    done = []
    core.start_job(job, done.append)
    sim.run()
    assert done == [job]
    assert vars(job) == {"work": 2.8e-3}


def test_zero_work_job_completes_immediately(sim):
    core = make_core(sim)
    elapsed = start(sim, core, 0.0)
    sim.run()
    assert elapsed == [0.0]


def test_negative_work_rejected(sim):
    """Rejected at the core, naming it --- NaN used to slip through and
    fail later inside ``Simulator.schedule``."""
    core = make_core(sim)
    for work in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="core 0"):
            core.start_job(Job(work))
        assert not core.busy and sim.pending_count() == 0


@settings(max_examples=50, deadline=None)
@given(
    work=st.floats(min_value=1e-6, max_value=10.0),
    switches=st.lists(
        st.tuples(st.floats(min_value=1e-6, max_value=0.5),
                  st.sampled_from([1.2, 1.6, 2.0, 2.4, 2.8])),
        max_size=5))
def test_property_work_conservation_under_dvfs(work, switches):
    """However the frequency changes mid-run, integrating frequency over
    the execution interval recovers exactly the job's work."""
    sim = Simulator()
    core = make_core(sim, freq=2.0)
    elapsed = start(sim, core, work)
    t = 0.0
    for delay, freq in switches:
        t += delay
        sim.schedule(t, lambda f=freq: core.set_frequency(f)
                     if core.busy else None)
    sim.run()
    # Reconstruct executed work from the residency deltas is complex;
    # instead check the invariant endpoint: the completion callback
    # fired, and elapsed time is consistent with min/max frequency.
    assert len(elapsed) == 1
    assert elapsed[0] >= work / 2.8 - 1e-12
    assert elapsed[0] <= work / 1.2 + 1e-12
