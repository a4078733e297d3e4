"""OS frequency governors: static pinning and the dynamic decision rules."""

import pytest

from repro.cpu.core import Core
from repro.cpu.pstates import XEON_E5_2640V3_PSTATES
from repro.governors import ondemand
from repro.governors.base import DynamicGovernor, GovernorSet
from repro.governors.conservative import ConservativeGovernor
from repro.governors.ondemand import OnDemandGovernor
from repro.governors.static import UserspaceGovernor
from repro.sim.engine import Simulator


class Job:
    """Stand-in transaction: the core reads only ``work`` (giga-cycles)."""

    def __init__(self, work):
        self.work = work


def make_core(sim, freq=2.8):
    return Core(sim, 0, XEON_E5_2640V3_PSTATES, initial_freq=freq)


def keep_busy(sim, core, fraction, period=0.002, until=1.0):
    """Drive the core busy for ``fraction`` of every ``period``."""
    def tick():
        if sim.now >= until or core.busy:
            return
        core.start_job(Job(core.freq * period * fraction))
        sim.schedule(period, tick)

    sim.schedule(0.0, tick)


# ----------------------------------------------------------------------
# Static governors
# ----------------------------------------------------------------------
def test_userspace_pins_requested(sim):
    core = make_core(sim)
    governor = UserspaceGovernor(2.4)
    governor.attach(core, sim)
    assert core.freq == 2.4


def test_userspace_requires_grid_frequency(sim):
    core = make_core(sim)
    with pytest.raises(ValueError):
        UserspaceGovernor(2.45).attach(core, sim)


# ----------------------------------------------------------------------
# OnDemand
# ----------------------------------------------------------------------
def test_ondemand_jumps_to_max_when_saturated(sim):
    core = make_core(sim, freq=1.2)
    governor = OnDemandGovernor()
    governor.attach(core, sim)
    core.start_job(Job(1000.0))  # saturate indefinitely
    sim.run(until=0.05)
    assert core.freq == 2.8


def test_ondemand_scales_proportionally_at_partial_load(sim):
    core = make_core(sim, freq=2.8)
    governor = OnDemandGovernor()
    governor.attach(core, sim)
    keep_busy(sim, core, fraction=0.5, until=0.5)
    sim.run(until=0.5)
    # load 0.5 -> target 1.4 GHz; utilization rises as freq drops, so the
    # equilibrium sits in the middle of the grid, never back at max.
    assert 1.2 <= core.freq <= 2.2


def test_ondemand_idle_core_drops_to_min(sim):
    core = make_core(sim, freq=2.8)
    OnDemandGovernor().attach(core, sim)
    sim.run(until=0.1)
    assert core.freq == 1.2


def test_ondemand_up_threshold_boundary_is_strictly_greater(sim,
                                                            monkeypatch):
    """cpufreq_ondemand.c tests ``load > up_threshold``: a load exactly
    at the threshold takes the proportional path, one epsilon above it
    jumps to max."""
    core = make_core(sim)
    governor = OnDemandGovernor()
    governor.attach(core, sim)
    # Exactly at the threshold: proportional, relation L of 0.95 * 2.8
    # = 2.66 -> 2.8 happens to round to max on this grid, so use a
    # threshold the grid can distinguish.
    monkeypatch.setattr(ondemand, "UP_THRESHOLD", 50.0)
    at = governor.target_frequency(0.50)
    above = governor.target_frequency(0.50 + 1e-9)
    assert at == XEON_E5_2640V3_PSTATES.nearest_at_least(0.50 * 2.8)
    assert at < XEON_E5_2640V3_PSTATES.max_freq
    assert above == XEON_E5_2640V3_PSTATES.max_freq


# ----------------------------------------------------------------------
# Conservative
# ----------------------------------------------------------------------
def test_conservative_steps_up_gradually_under_load(sim):
    core = make_core(sim, freq=1.2)
    governor = ConservativeGovernor()
    governor.attach(core, sim)
    core.start_job(Job(1000.0))
    sim.run(until=0.035)  # three samples: 3 steps of 0.14 GHz
    assert 1.2 < core.freq < 2.8
    after_three = core.freq
    sim.run(until=0.30)
    assert core.freq == 2.8
    assert after_three < 2.8


def test_conservative_steps_down_when_idle(sim):
    core = make_core(sim, freq=2.8)
    ConservativeGovernor().attach(core, sim)
    sim.run(until=0.05)
    assert core.freq < 2.8  # stepped, not jumped
    freq_after_short_idle = core.freq
    sim.run(until=1.5)
    assert core.freq == 1.2
    assert freq_after_short_idle > 1.2


def test_conservative_dead_zone_holds_frequency(sim):
    core = make_core(sim, freq=2.8)
    governor = ConservativeGovernor()
    governor.attach(core, sim)
    keep_busy(sim, core, fraction=0.5, until=0.5)  # between 20% and 80%
    sim.run(until=0.5)
    assert core.freq == 2.8  # never left the starting frequency


def test_conservative_down_steps_round_to_at_most():
    """The down path resolves with highest-at-or-below: a decrease must
    never be rounded back up past the request.  On the 0.1 GHz grid a
    single 0.14 GHz step down from 2.8 lands on 2.6 (at-most of 2.66);
    at-least rounding would report 2.8 --- no movement at all."""
    sim = Simulator()
    core = make_core(sim, freq=2.8)
    governor = ConservativeGovernor()
    governor.attach(core, sim)
    assert governor.target_frequency(0.0) == 2.6
    assert governor._requested == pytest.approx(2.8 - 0.14)
    # And the applied frequency never exceeds the internal request on
    # the way down.
    while core.freq > 1.2:
        target = governor.target_frequency(0.0)
        assert target <= governor._requested + 1e-12
        core.set_frequency(target)


def test_conservative_descends_to_min_on_coarse_grid():
    """Descent pin on the paper's 5-level grid (0.4 GHz gaps): every
    idle sample must make downward progress on the applied frequency
    within a few steps.  The old at-least rounding held the core a full
    P-state above the request --- three idle samples from 2.8 left the
    core still at 2.8 on this grid (requested 2.38, rounded up)."""
    sim = Simulator()
    grid = XEON_E5_2640V3_PSTATES.subset((1.2, 1.6, 2.0, 2.4, 2.8))
    core = Core(sim, 0, grid, initial_freq=2.8)
    ConservativeGovernor().attach(core, sim)
    sim.run(until=0.035)  # three idle samples: requested 2.8 -> 2.38
    assert core.freq == 2.0  # at-most of 2.38; at-least gave 2.4
    sim.run(until=0.2)
    assert core.freq == 1.2  # descent completes to the floor


# ----------------------------------------------------------------------
# Sampling machinery / GovernorSet
# ----------------------------------------------------------------------
def test_dynamic_governor_detach_stops_sampling(sim):
    core = make_core(sim, freq=2.8)
    governor = OnDemandGovernor()
    governor.attach(core, sim)
    sim.run(until=0.03)
    samples = governor.samples_taken
    governor.detach()
    sim.schedule(0.1, lambda: None)
    sim.run()
    assert governor.samples_taken == samples


def test_governor_set_attaches_one_per_core(sim):
    cores = [Core(sim, i, XEON_E5_2640V3_PSTATES) for i in range(3)]
    group = GovernorSet(lambda: UserspaceGovernor(1.2))
    group.attach_all(cores, sim)
    assert all(c.freq == 1.2 for c in cores)
    assert len(group.governors) == 3
    with pytest.raises(RuntimeError):
        group.attach_all(cores, sim)
    group.detach_all()
    assert group.governors == []


def test_dynamic_base_requires_target_implementation(sim):
    core = make_core(sim)
    governor = DynamicGovernor()
    governor.attach(core, sim)
    with pytest.raises(NotImplementedError):
        sim.run(until=0.02)
