"""Fleet experiment cells: acceptance pins, dispatch, determinism.

The acceptance claim this file pins (goldens in
``tests/data/pinned_fleet.json``, regenerate with
``PYTHONPATH=src python tests/pinned.py --write fleet``): on the
1000x-scaled diurnal trace, the elastic fleet's mean power is strictly
below the static peak-provisioned fleet's at equal-or-better per-shard
deadline-miss rates, and same-seed runs are bit-identical.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from pinned import (
    assert_pinned, elastic_cell, fingerprint, load_pins, pinned_grid,
    static_peak_cell,
)

from repro.fleet import FleetConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.parallel import config_key


GRID = pinned_grid("fleet")


@pytest.fixture(scope="module")
def elastic_result():
    return run_experiment(elastic_cell())


@pytest.fixture(scope="module")
def static_peak_result():
    return run_experiment(static_peak_cell())


# ----------------------------------------------------------------------
# The pinned acceptance cell
# ----------------------------------------------------------------------
def test_elastic_beats_static_peak_on_power(elastic_result,
                                            static_peak_result):
    """The headline: elastic strictly cheaper than peak-provisioned."""
    assert elastic_result.avg_power_watts \
        < static_peak_result.avg_power_watts


def test_elastic_miss_rates_no_worse_per_shard(elastic_result,
                                               static_peak_result):
    for shard, static_miss in static_peak_result.per_shard_failure.items():
        assert elastic_result.per_shard_failure[shard] \
            <= static_miss + 1e-12


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
def test_cell_matches_pinned_fingerprint(
        label, elastic_result, static_peak_result):
    cached = {"fleet-elastic-diurnal": elastic_result,
              "fleet-static-peak-diurnal": static_peak_result}
    assert_pinned(label, cached.get(label) or run_experiment(GRID[label]),
                  "fleet")


# ----------------------------------------------------------------------
# Dispatch and validation
# ----------------------------------------------------------------------
def _quick_fleet_config(**overrides):
    fleet = FleetConfig(shards=1, replicas_per_shard=1, node_workers=1)
    config = ExperimentConfig(warmup_seconds=0.2, test_seconds=0.5,
                              drain_limit_seconds=2.0, fleet=fleet)
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


def test_quick_chaos_cell_arms_the_self_healing_router():
    """A crash-per-shard plan on a 1-shard fleet: the chaos machinery
    wires up end to end even at smoke scale."""
    config = _quick_fleet_config(faults="shard-crash")
    config.test_seconds = 2.5  # the scenario crashes primaries at 1.5 s
    config.fleet = FleetConfig(shards=1, replicas_per_shard=1,
                               node_workers=1, elastic=False,
                               heartbeat_timeout_s=0.1)
    result = run_experiment(config)
    assert result.faults_injected == 1
    assert result.fleet_actions["node_crashes"] == 1
    assert result.fleet_actions["failovers"] == 1
    assert result.unserved_shards == 0
    assert result.failovers == 1
    assert 0.0 < result.availability["shard0"] < 1.0
    # The armed router's counters surface on the result.
    assert "retries" in result.fleet_actions or result.failovers == 1


def test_fleet_rejects_tier_policy():
    with pytest.raises(ValueError, match="per-type"):
        run_experiment(_quick_fleet_config(
            workload_policy="tiers",
            tier_targets={"gold": 7.5e-3, "silver": 37.5e-3}))


def test_fleet_config_validation_runs():
    with pytest.raises(ValueError, match="hysteresis"):
        run_experiment(_quick_fleet_config(
            fleet=FleetConfig(scale_in_utilization=0.6,
                              scale_out_utilization=0.5)))


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


def test_read_heavy_fleet_serves_replica_reads():
    """ycsb-b is 95% reads: active replicas must serve some of them
    fresh (tpcc's write-heavy mix keeps replicas perpetually stale)."""
    config = ExperimentConfig(
        benchmark="ycsb-b", scheme="polaris", slack=40.0,
        warmup_seconds=0.3, test_seconds=1.0, seed=13,
        fleet=FleetConfig(shards=1, replicas_per_shard=2,
                          node_workers=2, elastic=False))
    result = run_experiment(config)
    actions = result.fleet_actions
    assert actions["replica_reads"] > 0
    assert actions["routed_reads"] > actions["routed_writes"]


def test_static_parked_replicas_never_serve():
    config = _quick_fleet_config(
        benchmark="ycsb-b",
        fleet=FleetConfig(shards=1, replicas_per_shard=1,
                          node_workers=1, elastic=False,
                          static_active_replicas=0))
    result = run_experiment(config)
    assert result.scheme_label.startswith("fleet-static-1")
    assert result.fleet_actions["replica_reads"] == 0
    assert result.fleet_actions["replica_fallbacks"] > 0
    assert result.node_timeline == [(0.0, 1)]
