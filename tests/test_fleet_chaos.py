"""Chaos acceptance cells: crash-per-shard failover under pins.

The PR 9 acceptance claim (goldens in ``tests/data/pinned_chaos.json``,
regenerate with ``PYTHONPATH=src python tests/pinned.py --write chaos``):
under the seeded ``shard-crash`` plan (every primary fail-stops at
1.5 s) on the same diurnal trace the PR 8 frontier is pinned on, the
failover-enabled elastic fleet ends with zero unserved shards and a
bounded lost-commit count at power bounded by the healthy elastic
point, the no-failover baseline ends with every shard's write path
down and availability near zero, and same-seed reruns produce a
byte-identical failover timeline.

Everything here is marked ``chaos`` (``pytest -m chaos`` runs just these
cells); CI's sanitized tier-1 run audits the fleet books through them.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from pinned import (
    assert_pinned, elastic_cell, failover_cell, fingerprint, load_pins,
    no_failover_cell, pinned_grid,
)

from repro.harness.experiment import run_experiment

pytestmark = pytest.mark.chaos


GRID = pinned_grid("chaos")

#: Both pinned cells run two shards with one replica each.
SHARDS = 2


@pytest.fixture(scope="module")
def failover_result():
    return run_experiment(failover_cell())


@pytest.fixture(scope="module")
def no_failover_result():
    return run_experiment(no_failover_cell())


@pytest.fixture(scope="module")
def healthy_result():
    """The PR 8 healthy elastic reference cell (no faults)."""
    return run_experiment(elastic_cell())


# ----------------------------------------------------------------------
# Pinned fingerprints and determinism
# ----------------------------------------------------------------------
def test_pins_cover_the_grid():
    assert set(load_pins("chaos")) == set(GRID)


@pytest.mark.parametrize("label", sorted(GRID))
def test_cell_matches_pinned_fingerprint(
        label, failover_result, no_failover_result):
    cached = {"chaos-failover-diurnal": failover_result,
              "chaos-no-failover-diurnal": no_failover_result}
    assert_pinned(label, cached[label], "chaos")


def test_same_seed_rerun_gives_byte_identical_failover_timeline(
        failover_result):
    rerun = run_experiment(failover_cell())
    assert rerun.failover_timeline == failover_result.failover_timeline
    assert fingerprint(rerun, "chaos") \
        == fingerprint(failover_result, "chaos")


# ----------------------------------------------------------------------
# The headline availability claims
# ----------------------------------------------------------------------
def test_failover_fleet_serves_every_shard(failover_result):
    """Crash-per-shard, yet every shard ends the run with an ACTIVE
    primary: the failover machinery recovered the write path."""
    assert failover_result.unserved_shards == 0
    assert failover_result.failovers == SHARDS


def test_no_failover_baseline_loses_every_shard(no_failover_result):
    assert no_failover_result.unserved_shards == SHARDS
    assert no_failover_result.failovers == 0
    assert no_failover_result.failover_timeline == []
    assert no_failover_result.mttr_s == 0.0


def test_failover_availability_is_high(failover_result):
    assert set(failover_result.availability) \
        == {f"shard{i}" for i in range(SHARDS)}
    for shard, fraction in failover_result.availability.items():
        assert fraction > 0.9, (shard, fraction)


def test_baseline_availability_is_near_zero(no_failover_result):
    """Crashes land at 1.5 s of a 16 s test window and never heal."""
    for shard, fraction in no_failover_result.availability.items():
        assert fraction < 0.15, (shard, fraction)


def test_lost_commits_are_bounded(failover_result, no_failover_result):
    """Fail-stop loses only buffered-but-undurable group-commit tails:
    a handful of transactions, not the whole write history."""
    for result in (failover_result, no_failover_result):
        assert 0 < result.lost_commits <= 8 * SHARDS


def test_mttr_is_a_sub_second_window(failover_result):
    """Heartbeat timeout (0.2 s) + detection cadence + WAL replay."""
    assert 0.2 < failover_result.mttr_s < 1.0


def test_failover_power_holds_the_provisioning_frontier(
        failover_result, healthy_result):
    """Surviving the crash costs no extra power over the healthy
    elastic point: fail-stopped nodes draw nothing, so the chaos cell
    sits at-or-below the PR 8 frontier (whose healthy pin is enforced
    unchanged by test_fleet_experiment.py)."""
    assert failover_result.avg_power_watts \
        <= healthy_result.avg_power_watts + 1e-9


def test_failure_rate_gap_between_failover_and_baseline(
        failover_result, no_failover_result, healthy_result):
    """Failover keeps the miss rate within a few percent of healthy;
    the baseline, serving no writes after 1.5 s, loses most requests."""
    assert failover_result.failure_rate < 0.05
    assert no_failover_result.failure_rate > 0.5
    assert healthy_result.failure_rate < failover_result.failure_rate


def test_p999_is_recorded_for_chaos_cells(failover_result):
    assert failover_result.p999_latency_s > 0.0
    assert failover_result.p999_latency_s >= max(
        failover_result.mean_latency_by_workload.values())


# ----------------------------------------------------------------------
# Timeline shape and bookkeeping
# ----------------------------------------------------------------------
def test_failover_timeline_is_well_formed(failover_result):
    timeline = failover_result.failover_timeline
    assert timeline == sorted(timeline)
    events = {event for _, _, event, _ in timeline}
    assert events <= {"detected", "replay", "boot-spare", "re-elect",
                      "stranded", "promoted"}
    for shard_id in range(SHARDS):
        shard_events = [event for _, sid, event, _ in timeline
                        if sid == shard_id]
        assert shard_events.index("detected") \
            < shard_events.index("promoted")


def test_fleet_actions_record_the_chaos(failover_result,
                                        no_failover_result):
    actions = failover_result.fleet_actions
    assert actions["node_crashes"] == SHARDS
    assert actions["failovers"] == SHARDS
    assert actions["replayed_records"] > 0
    baseline = no_failover_result.fleet_actions
    assert baseline["node_crashes"] == SHARDS
    assert "failovers" not in baseline


def test_chaos_cells_inject_the_planned_faults(failover_result,
                                               no_failover_result):
    assert failover_result.faults_injected == SHARDS
    assert no_failover_result.faults_injected == SHARDS
