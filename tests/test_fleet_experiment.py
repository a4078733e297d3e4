"""Fleet experiment cells: acceptance pins, dispatch, determinism.

The acceptance claim this file pins (goldens in
``tests/data/pinned_fleet.json``, regenerate with
``PYTHONPATH=src python tests/pinned.py --write fleet``): on the
1000x-scaled diurnal trace, the elastic fleet's mean power is strictly
below the static peak-provisioned fleet's on every seed, at per-shard
deadline-miss rates no worse beyond seed noise, and same-seed runs are
bit-identical.
"""

import os
import statistics
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from pinned import (
    assert_pinned, elastic_cell, fingerprint, load_pins, pinned_grid,
    static_peak_cell,
)

from repro.fleet import failover
from repro.fleet.config import FleetConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.parallel import config_key


GRID = pinned_grid("fleet")


@pytest.fixture(scope="module")
def elastic_result():
    return run_experiment(elastic_cell())


@pytest.fixture(scope="module")
def static_peak_result():
    return run_experiment(static_peak_cell())


#: The pinned seed and the five after it: the seeds the elastic-vs-
#: static claims are replicated over.
CLAIM_SEEDS = range(11, 17)


@pytest.fixture(scope="module")
def seed_pairs(elastic_result, static_peak_result):
    """(elastic, static-peak) results per claim seed; the pinned seed
    reuses the pinned cells."""
    pairs = {11: (elastic_result, static_peak_result)}
    for seed in CLAIM_SEEDS[1:]:
        pairs[seed] = (run_experiment(replace(elastic_cell(), seed=seed)),
                       run_experiment(replace(static_peak_cell(),
                                              seed=seed)))
    return pairs


def _within_noise(differences) -> bool:
    """The mean difference is at most two standard errors above zero:
    elastic is not detectably worse."""
    spread = statistics.stdev(differences) / len(differences) ** 0.5
    return statistics.mean(differences) <= 2.0 * spread


@pytest.fixture(scope="module")
def replica_result():
    """The read-heavy replica cell: pinned, and read by the replica
    test, so it runs once."""
    return run_experiment(GRID["fleet-ycsb-b-replicas"])


# ----------------------------------------------------------------------
# The pinned acceptance cell
# ----------------------------------------------------------------------
def test_elastic_beats_static_peak_on_power(seed_pairs):
    """The headline: elastic strictly cheaper than peak-provisioned,
    on every claim seed."""
    for elastic, static in seed_pairs.values():
        assert elastic.avg_power_watts < static.avg_power_watts


def test_elastic_miss_rates_no_worse_per_shard(seed_pairs):
    """Replicated over K = 6 seeds, as the seeds support it.

    On one seed the per-shard rates differ either way: seed 11 reads
    elastic 0.00521 against static 0.00478 on shard0.  Over seeds
    11-16 the 12 per-shard differences (elastic - static) read
    -0.00001 +- 0.00053 (mean +- sd; two standard errors 0.00031), and
    fleet-wide elastic is no worse on 3 of 6 seeds (9 of 16 over seeds
    1-16) --- a coin flip, so the fleet-wide claim too is "not
    detectably worse", not "never worse".  Both means must stay within
    two standard errors above zero.
    """
    per_shard = [elastic.per_shard_failure[shard] - static_miss
                 for elastic, static in seed_pairs.values()
                 for shard, static_miss in static.per_shard_failure.items()]
    assert len(per_shard) == 2 * len(CLAIM_SEEDS)
    assert _within_noise(per_shard), per_shard
    fleet_wide = [elastic.failure_rate - static.failure_rate
                  for elastic, static in seed_pairs.values()]
    assert _within_noise(fleet_wide), fleet_wide


def test_elastic_actually_scaled(elastic_result):
    actions = elastic_result.fleet_actions
    assert actions["scale_out"] > 0
    assert actions["scale_in"] > 0
    assert actions["boots"] == actions["scale_out"]
    assert actions["drains"] == actions["scale_in"]


def test_identical_arrivals_across_provisioning(elastic_result,
                                                static_peak_result):
    """Load is expressed against the peak-provisioned fleet, so the
    cells see the same offered stream."""
    assert elastic_result.offered == static_peak_result.offered
    assert elastic_result.per_shard_offered \
        == static_peak_result.per_shard_offered


def test_no_requests_lost(elastic_result, static_peak_result):
    for result in (elastic_result, static_peak_result):
        assert result.lost == 0
        assert result.offered == result.completed + result.rejected


def test_elastic_rerun_is_bit_identical(elastic_result):
    assert fingerprint(run_experiment(elastic_cell()), "fleet") \
        == fingerprint(elastic_result, "fleet")


def test_pins_cover_the_grid():
    assert set(load_pins("fleet")) == set(GRID)


@pytest.mark.parametrize("label", sorted(GRID))
def test_cell_matches_pinned_fingerprint(label, request):
    fixture = {"fleet-elastic-diurnal": "elastic_result",
               "fleet-static-peak-diurnal": "static_peak_result",
               "fleet-ycsb-b-replicas": "replica_result"}[label]
    assert_pinned(label, request.getfixturevalue(fixture), "fleet")


# ----------------------------------------------------------------------
# Dispatch and validation
# ----------------------------------------------------------------------
def _quick_fleet_config(**overrides):
    fleet = FleetConfig(shards=1, replicas_per_shard=1, node_workers=1)
    config = ExperimentConfig(warmup_seconds=0.2, test_seconds=0.5,
                              fleet=fleet)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def test_run_experiment_dispatches_on_fleet_field():
    result = run_experiment(_quick_fleet_config())
    assert result.scheme_label.startswith("fleet-elastic")
    assert result.node_timeline
    assert set(result.per_shard_failure) == {"shard0"}


def test_fleet_rejects_server_tier_fault_plans():
    with pytest.raises(ValueError, match="fault"):
        run_experiment(_quick_fleet_config(faults="burst"))
    with pytest.raises(ValueError, match="fault"):
        run_experiment(_quick_fleet_config(faults="dying-core"))


def test_single_server_rejects_fleet_fault_plans():
    config = ExperimentConfig(warmup_seconds=0.2, test_seconds=0.5,
                              faults="shard-crash")
    with pytest.raises(ValueError, match="fleet"):
        run_experiment(config)


@pytest.fixture(scope="module")
def quick_chaos_result():
    """A crash-per-shard plan on a 1-shard fleet (the scenario crashes
    primaries at 1.5 s)."""
    config = _quick_fleet_config(faults="shard-crash")
    config.test_seconds = 2.5
    config.fleet = FleetConfig(shards=1, replicas_per_shard=1,
                               node_workers=1, elastic=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(failover, "HEARTBEAT_TIMEOUT_S", 0.1)
        return run_experiment(config)


def test_quick_chaos_cell_crashes_and_fails_over(quick_chaos_result):
    """The chaos machinery wires up end to end even at smoke scale."""
    result = quick_chaos_result
    assert result.faults_injected == 1
    assert result.fleet_actions["node_crashes"] == 1
    assert result.fleet_actions["failovers"] == 1
    assert result.unserved_shards == 0
    assert result.failovers == 1
    assert 0.0 < result.availability["shard0"] < 1.0


#: The router's counters, first in every fleet cell's ``fleet_actions``.
ROUTER_COUNTERS = ["routed_writes", "routed_reads", "replica_reads",
                   "stale_read_bounces", "retries", "shed_no_active",
                   "stale_reads_served"]


def test_healthy_and_chaos_cells_report_the_same_router_counters(
        quick_chaos_result):
    """One routing path: a healthy cell reports the counters a chaos
    cell does, and no route of it failed."""
    healthy = run_experiment(_quick_fleet_config())
    chaos = quick_chaos_result
    for result in (healthy, chaos):
        assert list(result.fleet_actions)[:7] == ROUTER_COUNTERS
    assert healthy.fleet_actions["retries"] == 0
    assert healthy.fleet_actions["shed_no_active"] == 0
    assert healthy.fleet_actions["stale_reads_served"] == 0
    assert chaos.fleet_actions["retries"] > 0


def test_fleet_rejects_tier_policy():
    with pytest.raises(ValueError, match="per-type"):
        run_experiment(_quick_fleet_config(
            workload_policy="tiers",
            tier_targets={"gold": 7.5e-3, "silver": 37.5e-3}))


def test_fleet_config_validation_runs():
    with pytest.raises(ValueError, match="min_active_replicas"):
        run_experiment(_quick_fleet_config(
            fleet=FleetConfig(replicas_per_shard=1, min_active_replicas=2)))


def test_fleet_salts_the_sweep_cache_key():
    plain = ExperimentConfig()
    fleet_a = ExperimentConfig(fleet=FleetConfig())
    fleet_b = ExperimentConfig(fleet=FleetConfig(elastic=False))
    keys = {config_key(plain), config_key(fleet_a), config_key(fleet_b)}
    assert len(keys) == 3


def test_governor_scheme_fleet_runs():
    """OS-governor schemes attach a GovernorSet per node."""
    result = run_experiment(_quick_fleet_config(scheme="ondemand"))
    assert "OnDemand" in result.scheme_label


def test_read_heavy_fleet_serves_replica_reads(replica_result,
                                               elastic_result,
                                               static_peak_result):
    """ycsb-b is 95% reads over one primary and two replicas: the
    replicas serve most reads fresh (a write makes only its own key
    stale), and the cell fails no more often than the healthy cells."""
    actions = replica_result.fleet_actions
    assert actions["routed_reads"] > actions["routed_writes"]
    assert actions["replica_reads"] > actions["routed_reads"] / 2
    assert actions["stale_read_bounces"] < actions["routed_reads"] / 10
    healthy = max(elastic_result.failure_rate,
                  static_peak_result.failure_rate)
    assert replica_result.failure_rate <= healthy


def test_static_parked_replicas_never_serve():
    config = _quick_fleet_config(
        benchmark="ycsb-b",
        fleet=FleetConfig(shards=1, replicas_per_shard=1,
                          node_workers=1, elastic=False,
                          static_active_replicas=0))
    result = run_experiment(config)
    assert result.scheme_label.startswith("fleet-static-1")
    assert result.fleet_actions["replica_reads"] == 0
    assert result.fleet_actions["routed_reads"] > 0
    assert result.node_timeline == [(0.0, 1)]
