"""Fault injection mechanics: MSR modes, throttles, stalls, bursts, skew."""

import random

import pytest

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.cpu.msr import IA32_PERF_CTL, InjectedMsrError, encode_perf_ctl
from repro.cpu.pstates import POLARIS_FREQUENCIES
from repro.db.server import DatabaseServer, ServerConfig
from repro.faults.injector import FaultInjector, wrap_rate
from repro.faults.plan import (
    BurstSpec, FaultPlan, MsrFaultSpec, SkewSpec, StallSpec, ThrottleSpec,
)
from repro.sim.engine import Simulator


class Job:
    """Stand-in transaction: the core reads only ``work`` (giga-cycles)."""

    def __init__(self, work):
        self.work = work


def make_server(sim, workers=2):
    config = ServerConfig(workers=workers, request_handlers=1)
    return DatabaseServer(sim, config, scheduler_factory=None,
                          initial_freq=2.8)


def attach(sim, server, plan, seed=7):
    injector = FaultInjector(sim, plan, random.Random(seed))
    injector.attach(server)
    return injector


# ----------------------------------------------------------------------
# MSR write faults
# ----------------------------------------------------------------------
def test_msr_error_mode_raises_inside_window(sim):
    server = make_server(sim)
    attach(sim, server, FaultPlan(
        msr_faults=(MsrFaultSpec(0.1, 0.2, mode="error"),)))
    msr = server.workers[0].msr
    msr.write(IA32_PERF_CTL, encode_perf_ctl(2.4))  # before window: fine
    assert server.cores[0].freq == 2.4
    sim.schedule(0.15, lambda: None)
    sim.run()
    with pytest.raises(InjectedMsrError, match="injected"):
        msr.write(IA32_PERF_CTL, encode_perf_ctl(2.8))
    sim.schedule_at(0.25, lambda: None)
    sim.run()
    msr.write(IA32_PERF_CTL, encode_perf_ctl(2.8))  # after window: fine
    assert server.cores[0].freq == 2.8


def test_msr_stuck_mode_silently_pins_pstate(sim):
    server = make_server(sim)
    injector = attach(sim, server, FaultPlan(
        msr_faults=(MsrFaultSpec(0.0, 1.0, mode="stuck"),)))
    msr = server.workers[0].msr
    msr.write(IA32_PERF_CTL, encode_perf_ctl(1.2))  # no exception...
    assert server.cores[0].freq == 2.8              # ...but no effect
    assert injector.injected["msr"] == 1


def test_msr_fault_respects_worker_filter(sim):
    server = make_server(sim)
    attach(sim, server, FaultPlan(
        msr_faults=(MsrFaultSpec(0.0, 1.0, mode="stuck", workers=(1,)),)))
    server.workers[0].msr.write(IA32_PERF_CTL, encode_perf_ctl(1.2))
    server.workers[1].msr.write(IA32_PERF_CTL, encode_perf_ctl(1.2))
    assert server.cores[0].freq == 1.2  # unaffected worker
    assert server.cores[1].freq == 2.8  # stuck


def test_msr_fault_probability_is_seed_deterministic(sim):
    def run(seed):
        local_sim = Simulator()
        server = make_server(local_sim)
        injector = attach(local_sim, server, FaultPlan(
            msr_faults=(MsrFaultSpec(0.0, 1.0, mode="stuck",
                                     probability=0.5),)), seed=seed)
        msr = server.workers[0].msr
        outcomes = []
        for freq in (1.2, 1.6, 2.0, 2.4) * 5:
            msr.write(IA32_PERF_CTL, encode_perf_ctl(freq))
            outcomes.append(server.cores[0].freq)
        return outcomes, injector.injected["msr"]

    first, second = run(3), run(3)
    assert first == second
    outcomes, fired = first
    assert 0 < fired < len(outcomes)  # some stuck, some through


# ----------------------------------------------------------------------
# Thermal throttling
# ----------------------------------------------------------------------
def test_throttle_window_caps_and_releases(sim):
    server = make_server(sim)
    attach(sim, server, FaultPlan(
        throttles=(ThrottleSpec(0.1, 0.2, ceiling_ghz=1.6),)))
    core = server.cores[0]
    sim.run(until=0.15)
    assert core.throttle_ceiling_ghz == 1.6
    assert core.freq <= 1.6 + 1e-9  # already-hot core stepped down
    core.set_frequency(2.8)
    assert core.freq <= 1.6 + 1e-9  # requests clamp to the ceiling
    sim.run(until=0.25)
    assert core.throttle_ceiling_ghz is None
    core.set_frequency(2.8)
    assert core.freq == 2.8


def test_overlapping_throttles_apply_the_minimum(sim):
    server = make_server(sim, workers=1)
    attach(sim, server, FaultPlan(throttles=(
        ThrottleSpec(0.1, 0.4, ceiling_ghz=2.0),
        ThrottleSpec(0.2, 0.3, ceiling_ghz=1.2),
    )))
    core = server.cores[0]
    checks = []
    for at_s in (0.15, 0.25, 0.35, 0.45):
        sim.schedule_at(at_s,
                        lambda: checks.append(core.throttle_ceiling_ghz))
    sim.run()
    assert checks == [2.0, 1.2, 2.0, None]


# ----------------------------------------------------------------------
# Core stalls
# ----------------------------------------------------------------------
def test_stall_freezes_and_resume_finishes_the_job(sim):
    server = make_server(sim, workers=1)
    attach(sim, server, FaultPlan(
        stalls=(StallSpec(at_s=0.1, duration_s=0.2, workers=(0,)),)))
    core = server.cores[0]
    done = []
    core.start_job(Job(2.8 * 0.3), lambda job: done.append(sim.now))
    sim.run()
    # 0.3 s of work at 2.8 GHz, interrupted for 0.2 s: finishes at 0.5.
    assert done == [pytest.approx(0.5)]
    assert not core.stalled


def test_permanent_stall_never_completes(sim):
    server = make_server(sim, workers=1)
    injector = attach(sim, server, FaultPlan(
        stalls=(StallSpec(at_s=0.1, duration_s=None, workers=(0,)),)))
    core = server.cores[0]
    done = []
    core.start_job(Job(2.8 * 0.3), lambda job: done.append(sim.now))
    sim.run(until=10.0)
    assert done == []
    assert core.stalled
    assert injector.injected["stall"] == 1


def test_stalled_core_rejects_new_jobs(sim):
    server = make_server(sim, workers=1)
    attach(sim, server, FaultPlan(
        stalls=(StallSpec(at_s=0.0, duration_s=None, workers=(0,)),)))
    sim.run()
    with pytest.raises(RuntimeError, match="stalled"):
        server.cores[0].start_job(Job(1.0), lambda job: None)


# ----------------------------------------------------------------------
# Bursts (a pure wrapper) and estimator skew
# ----------------------------------------------------------------------
def test_wrap_rate_multiplies_only_inside_burst_window():
    rate = wrap_rate(lambda now_s: 100.0,
                     (BurstSpec(1.0, 2.0, multiplier=3.0),))
    assert rate(0.5) == 100.0
    assert rate(1.5) == 300.0
    assert rate(2.0) == 100.0  # window is half-open


def test_wrap_rate_passthrough_without_bursts():
    base = lambda now_s: 42.0  # noqa: E731
    assert wrap_rate(base, ()) is base


def test_skew_window_edges_set_the_schedulers_estimator(sim):
    """Between its edges a skew window scales every estimate and every
    row a scheduler holds; overlapping windows fold their factors in
    plan order; observations stay unscaled."""
    estimator = ExecutionTimeEstimator(window=1, percentile=100.0)
    estimator.observe("w", 2.8, 0.010)
    server = DatabaseServer(
        sim, ServerConfig(workers=2, request_handlers=1),
        scheduler_factory=lambda: PolarisScheduler(POLARIS_FREQUENCIES,
                                                   estimator))
    row = estimator.row("w")
    attach(sim, server, FaultPlan(skews=(SkewSpec(1.0, 3.0, factor=0.3),
                                         SkewSpec(2.0, 4.0, factor=1.7))))
    seen = []
    for at_s in (0.5, 1.5, 2.5, 3.5, 4.5):
        sim.schedule_at(at_s, lambda: seen.append(
            (estimator.estimate("w", 2.8), row[-1])))
    sim.schedule_at(3.2, lambda: estimator.observe("w", 2.8, 0.020))
    sim.run()
    assert seen == [(0.010, 0.010), (0.010 * 0.3,) * 2,
                    (0.010 * 0.3 * 1.7,) * 2, (0.020 * 1.7,) * 2,
                    (0.020, 0.020)]


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
def test_injector_counts_window_edges(sim):
    server = make_server(sim, workers=1)
    injector = attach(sim, server, FaultPlan(
        bursts=(BurstSpec(0.1, 0.2),),
        skews=(SkewSpec(0.1, 0.2),),
        throttles=(ThrottleSpec(0.1, 0.2),),
        stalls=(StallSpec(at_s=0.1, duration_s=0.05),)))
    sim.run()
    assert injector.injected == {"msr": 0, "throttle": 1, "stall": 1,
                                 "burst": 1, "skew": 1}
    assert injector.total_injected == 4


@pytest.mark.parametrize("plan", [
    FaultPlan(msr_faults=(MsrFaultSpec(0.0, 1.0, workers=(2,)),)),
    FaultPlan(throttles=(ThrottleSpec(0.0, 1.0, workers=(0, 2)),)),
    FaultPlan(stalls=(StallSpec(at_s=0.1, workers=(9,)),)),
], ids=["msr", "throttle", "stall"])
def test_attach_rejects_a_worker_the_server_lacks(sim, plan):
    with pytest.raises(ValueError, match="Spec names unknown worker"):
        attach(sim, make_server(sim, workers=2), plan)


def test_injector_attaches_once(sim):
    server = make_server(sim, workers=1)
    injector = attach(sim, server, FaultPlan(bursts=(BurstSpec(0.0, 1.0),)))
    with pytest.raises(RuntimeError, match="already attached"):
        injector.attach(server)
