"""Shared frequency domains: topology shapes and max-of-votes coordination."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.core import Core
from repro.cpu.msr import IA32_PERF_CTL, MsrFile, encode_perf_ctl
from repro.cpu.pstates import POLARIS_FREQUENCIES, XEON_E5_2640V3_PSTATES
from repro.cpu.topology import (
    FrequencyDomain, GRANULARITIES, SocketTopology, make_topology,
)
from repro.sim.engine import Simulator


def make_domain(sim, n_cores=4, initial_freq=1.2, grid=None):
    grid = grid or XEON_E5_2640V3_PSTATES
    cores = [Core(sim, i, grid, initial_freq=initial_freq)
             for i in range(n_cores)]
    return FrequencyDomain(0, cores), cores


# ----------------------------------------------------------------------
# SocketTopology shapes
# ----------------------------------------------------------------------
def test_topology_defaults_to_per_core_identity():
    topology = SocketTopology()
    assert topology.per_core
    assert topology.domain_size() == 1
    assert topology.domain_groups(4) == [(0,), (1,), (2,), (3,)]


def test_topology_per_socket_groups():
    topology = SocketTopology(granularity="per-socket")
    assert not topology.per_core
    assert topology.domain_size() == 8
    assert topology.domain_groups(16) == [tuple(range(8)),
                                          tuple(range(8, 16))]
    # An under-populated last package.
    assert topology.domain_groups(10) == [tuple(range(8)), (8, 9)]


def test_topology_per_module_groups():
    topology = SocketTopology(granularity="per-module", cores_per_module=2)
    assert topology.domain_groups(5) == [(0, 1), (2, 3), (4,)]


def test_topology_validation():
    with pytest.raises(ValueError):
        SocketTopology(granularity="per-rack")
    with pytest.raises(ValueError):
        SocketTopology(cores_per_socket=0)
    with pytest.raises(ValueError):
        SocketTopology(cores_per_module=0)
    with pytest.raises(ValueError):
        SocketTopology(switch_latency_s=-1.0)


def test_make_topology_coercions():
    assert make_topology(None).per_core
    assert make_topology("per-socket").granularity == "per-socket"
    explicit = SocketTopology(granularity="per-module")
    assert make_topology(explicit) is explicit
    with pytest.raises(ValueError):
        make_topology("bogus")
    assert set(GRANULARITIES) == {"per-core", "per-module", "per-socket"}


# ----------------------------------------------------------------------
# FrequencyDomain coordination
# ----------------------------------------------------------------------
def test_domain_applies_max_of_votes_to_all_members(sim):
    domain, cores = make_domain(sim)
    cores[0].request_frequency(2.0)
    assert all(c.freq == 2.0 for c in cores)
    cores[1].request_frequency(2.8)
    assert all(c.freq == 2.8 for c in cores)
    # A lower vote from the non-max core changes nothing.
    cores[0].request_frequency(1.2)
    assert all(c.freq == 2.8 for c in cores)
    # The max voter stepping down releases the domain to the next max.
    cores[1].request_frequency(1.6)
    assert all(c.freq == 1.6 for c in cores)
    domain.sanitize_check()


def test_domain_all_votes_down_reaches_floor(sim):
    domain, cores = make_domain(sim, initial_freq=2.8)
    for core in cores:
        core.request_frequency(1.2)
    assert all(c.freq == 1.2 for c in cores)
    assert domain.freq == 1.2


def test_domain_requires_common_initial_frequency(sim):
    cores = [Core(sim, 0, XEON_E5_2640V3_PSTATES, initial_freq=1.2),
             Core(sim, 1, XEON_E5_2640V3_PSTATES, initial_freq=2.8)]
    with pytest.raises(ValueError):
        FrequencyDomain(0, cores)
    with pytest.raises(ValueError):
        FrequencyDomain(1, [])


def test_domain_rejects_off_grid_vote(sim):
    _domain, cores = make_domain(sim)
    with pytest.raises(ValueError):
        cores[0].request_frequency(2.45)


def test_single_core_domain_equals_per_core_behavior(sim):
    """A size-1 domain is the identity: the core tracks its own votes
    exactly as a domainless core tracks set_frequency."""
    lone = Core(sim, 0, XEON_E5_2640V3_PSTATES, initial_freq=1.2)
    domain = FrequencyDomain(0, [lone])
    free = Core(sim, 1, XEON_E5_2640V3_PSTATES, initial_freq=1.2)
    for freq in (2.0, 2.8, 1.6, 1.6, 1.2, 2.4):
        lone.request_frequency(freq)
        free.request_frequency(freq)
        assert lone.freq == free.freq == freq
    assert domain.freq == free.freq
    assert lone.freq_transitions == free.freq_transitions


def test_msr_write_files_a_domain_vote(sim):
    """One PERF_CTL per domain: a write through any member's MSR file
    resolves against the sibling votes instead of acting alone."""
    _domain, cores = make_domain(sim)
    msr0, msr1 = MsrFile(cores[0]), MsrFile(cores[1])
    msr1.write(IA32_PERF_CTL, encode_perf_ctl(2.8))
    assert cores[0].freq == 2.8
    msr0.write(IA32_PERF_CTL, encode_perf_ctl(1.2))
    assert cores[0].freq == 2.8  # sibling vote dominates
    msr1.write(IA32_PERF_CTL, encode_perf_ctl(1.6))
    assert all(c.freq == 1.6 for c in cores)


def test_domain_projected_frequency(sim):
    _domain, cores = make_domain(sim)
    cores[1].request_frequency(2.4)
    # A lower request cannot move the domain below the sibling's vote.
    assert cores[0].projected_frequency(1.2) == 2.4
    # A higher request raises it.
    assert cores[0].projected_frequency(2.8) == 2.8
    # The domainless analogue is the plain achievable frequency.
    free = Core(sim, 9, XEON_E5_2640V3_PSTATES, initial_freq=1.2)
    assert free.projected_frequency(2.0) == 2.0


def test_domain_throttle_clamps_every_member(sim):
    """One rail, one clock: the most-throttled member limits the whole
    domain, and votes above the ceiling resolve to the clamp."""
    domain, cores = make_domain(sim, initial_freq=2.8)
    for core in cores:
        core.set_throttle_ceiling(1.65)  # off-grid: clamps to 1.6
    cores[0].request_frequency(2.8)
    assert all(c.freq == 1.6 for c in cores)
    domain.sanitize_check()
    for core in cores:
        core.set_throttle_ceiling(None)
    # Clearing the ceiling re-raises nothing until the next decision.
    assert all(c.freq == 1.6 for c in cores)
    cores[0].request_frequency(2.8)
    assert all(c.freq == 2.8 for c in cores)


def test_domain_transition_counting_and_stale_vote_refresh(sim):
    domain, cores = make_domain(sim)
    cores[0].request_frequency(2.8)
    assert domain.transitions == 1
    # Same-frequency re-votes resolve without a transition.
    cores[0].request_frequency(2.8)
    assert domain.transitions == 1
    # The re-vote still updates the ledger: core 1's higher stale vote
    # would otherwise pin the domain.
    cores[1].request_frequency(2.8)
    cores[1].request_frequency(1.2)
    assert domain.transitions == 1  # core 0 still votes 2.8
    cores[0].request_frequency(1.2)
    assert domain.transitions == 2
    assert all(c.freq == 1.2 for c in cores)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.sampled_from(POLARIS_FREQUENCIES)),
    min_size=1, max_size=60))
def test_property_domain_freq_is_always_max_of_votes(votes):
    """After any request sequence, every member runs at exactly the
    maximum of the per-core vote ledger (no throttles active)."""
    sim = Simulator()
    grid = XEON_E5_2640V3_PSTATES.subset(POLARIS_FREQUENCIES)
    domain, cores = make_domain(sim, grid=grid)
    for core_index, freq in votes:
        cores[core_index].request_frequency(freq)
        expected = max(domain.votes.values())
        assert domain.freq == expected
        assert all(c.freq == expected for c in cores)
        domain.sanitize_check()


# ----------------------------------------------------------------------
# End-to-end: identity of the per-core default, per-socket under simsan
# ----------------------------------------------------------------------
PIN_SCALE = dict(load_fraction=0.6, slack=40.0, workers=4,
                 warmup_seconds=0.3, test_seconds=1.5, seed=7)

#: Exact pre-domain results at PIN_SCALE.  The per-core default must
#: keep reproducing these to the last bit: it creates no domain objects
#: and touches no new code paths.  (The ``conservative`` value is
#: post-rounding-fix --- the only intentional behavior change.)
PER_CORE_PINS = {
    "polaris": (108.59119046887172, 0.007258064516129033, 27,
                15.674695812106823, 203.61681854560004),
    "ondemand": (113.055275961831, 0.03602150537634408, 134,
                 23.879751641900683, 204.45358894770067),
    "conservative": (117.2130239636072, 0.020698924731182795, 77,
                     31.26301324946023, 211.67848274435312),
    "static-2.8": (117.29131592075986, 0.020161290322580645, 75,
                   31.497004848245453, 211.91247434313834),
}


@pytest.mark.parametrize("scheme", sorted(PER_CORE_PINS))
def test_per_core_default_is_bit_identical_to_pre_domain_results(scheme):
    result = run_pin(scheme)
    assert (result.avg_power_watts, result.failure_rate, result.missed,
            result.cpu_energy_joules,
            result.wall_energy_joules) == PER_CORE_PINS[scheme]


def run_pin(scheme, **overrides):
    from repro.harness.experiment import ExperimentConfig, run_experiment
    params = dict(PIN_SCALE)
    params.update(overrides)
    return run_experiment(ExperimentConfig(scheme=scheme, **params))


def test_per_socket_run_is_seed_deterministic():
    """Same seed, same per-socket topology -> identical results, and
    the coarse domain never beats per-core on power (max-of-votes only
    ever raises frequencies)."""
    first = run_pin("polaris", topology="per-socket")
    second = run_pin("polaris", topology="per-socket")
    assert (first.avg_power_watts, first.failure_rate, first.missed) == \
        (second.avg_power_watts, second.failure_rate, second.missed)
    per_core = PER_CORE_PINS["polaris"]
    assert first.avg_power_watts >= per_core[0]


def test_per_socket_run_passes_simsan(monkeypatch):
    """The domain-coherence and domain-max-rule invariants hold over a
    full experiment with every sanitizer check armed."""
    monkeypatch.setenv("REPRO_SIMSAN", "1")
    result = run_pin("polaris", topology="per-socket")
    assert result.completed > 0


def test_per_socket_switch_latency_costs_time():
    """A 200us shared-PLL re-lock per domain transition is pure
    overhead: energy consumed cannot drop."""
    free = run_pin("polaris", topology="per-socket")
    slow = run_pin("polaris", topology="per-socket",
                   topology_switch_latency=200e-6)
    assert slow.wall_energy_joules >= free.wall_energy_joules - 1e-9
