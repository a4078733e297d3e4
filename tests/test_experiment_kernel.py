"""The one experiment kernel: tiers agree where they overlap.

``run_experiment`` is a single build -> drive -> collect loop over a
plant (one server, or a fleet).  These tests guard the seam between the
kernel and its two plants:

* a one-shard, zero-replica, static fleet *is* a server (ROADMAP aim 3):
  with the fleet plant's stream prefix blanked it must reproduce the
  single-server cell on every common result field;
* the end-of-run loss rule is one rule: ``offered`` does not depend on
  how long the drain was allowed to run, and the books always close;
* config knobs mean the same thing at both tiers;
* slack moves a governor cell's score and nothing else; and
* bad configs fail at the boundary, naming the field.

Every cell pins ``trace=False`` (as the pinned grids do): ambient
``REPRO_TRACE=1`` would otherwise flip ``trace_events``.
"""

import dataclasses
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from pinned import fingerprint

from repro.fleet import FleetConfig
from repro.fleet.experiment import FleetPlant
from repro.harness.experiment import ExperimentConfig, run_experiment

_SHORT = dict(workers=2, request_handlers=1, warmup_seconds=0.3,
              test_seconds=0.8, seed=5, trace=False)

#: A fleet that is one server: same node shape as ``_SHORT``.
_ONE_NODE = dict(shards=1, replicas_per_shard=0, elastic=False,
                 node_workers=2, node_request_handlers=1)

DIFFERENTIAL_CELLS = {
    "polaris": dict(scheme="polaris", slack=40.0),
    "ondemand": dict(scheme="ondemand", slack=40.0),
    "polaris-load-trace": dict(scheme="polaris", slack=40.0,
                               load_trace=[0.2, 0.9, 0.5]),
    "polaris-shed-high-load": dict(scheme="polaris-shed", slack=10.0,
                                   load_fraction=0.9),
}


def _without_label(result) -> str:
    """The shared fingerprint minus ``scheme_label`` (a fleet cell's
    label names its provisioning; everything else must agree)."""
    return fingerprint(dataclasses.replace(result, scheme_label=""))


# ----------------------------------------------------------------------
# Cross-tier differential: a one-node fleet is a server
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label", sorted(DIFFERENTIAL_CELLS))
def test_one_node_fleet_equals_the_single_server(label, monkeypatch):
    # The two tiers draw from disjoint stream names by design; blank
    # the prefix so they see the same arrivals and service times.
    monkeypatch.setattr(FleetPlant, "stream_prefix", "")
    # One cell also runs with the sanitizer auditing both plants' books.
    if label == "polaris-shed-high-load":
        monkeypatch.setenv("REPRO_SIMSAN", "1")
    cell = dict(_SHORT, **DIFFERENTIAL_CELLS[label])
    server = run_experiment(ExperimentConfig(**cell))
    fleet = run_experiment(ExperimentConfig(
        fleet=FleetConfig(**_ONE_NODE), **cell))
    assert server.completed > 0
    assert _without_label(fleet) == _without_label(server)
    assert fleet.sim_events == server.sim_events
    assert fleet.per_shard_offered == {"shard0": server.offered}
    assert fleet.per_shard_failure == {"shard0": server.failure_rate}


# ----------------------------------------------------------------------
# One end-of-run loss rule
# ----------------------------------------------------------------------
def _overloaded(fleet, **overrides):
    """static-1.2 at load 0.9: the backlog outlives any short drain."""
    return ExperimentConfig(
        scheme="static-1.2", load_fraction=0.9, slack=40.0,
        fleet=FleetConfig(**_ONE_NODE) if fleet else None,
        **dict(_SHORT, **overrides))


@pytest.mark.parametrize("fleet", [False, True], ids=["server", "fleet"])
def test_offered_is_independent_of_the_drain_limit(fleet):
    """A request that arrived in the test window is offered, whether or
    not the drain was allowed to reach it: cutting the drain short turns
    would-be late completions into losses, never into silence."""
    full = run_experiment(_overloaded(fleet))
    cut = run_experiment(_overloaded(fleet, drain_limit_seconds=0.05))
    assert cut.lost > 0  # the cut actually stranded requests
    assert full.lost == 0
    assert cut.offered == full.offered
    for result in (full, cut):
        assert result.offered == (result.completed + result.rejected
                                  + result.lost)
    if fleet:
        assert cut.per_shard_offered == {"shard0": cut.offered}


# ----------------------------------------------------------------------
# One meaning per config field
# ----------------------------------------------------------------------
def test_mixed_freq_updates_reach_fleet_schedulers():
    """The ablation flag salts the cache key at both tiers, so it must
    change the run at both tiers."""
    def cell(flag):
        return run_experiment(ExperimentConfig(
            scheme="polaris", slack=10.0,
            estimator_mixed_freq_updates=flag,
            fleet=FleetConfig(**_ONE_NODE), **_SHORT))
    assert fingerprint(cell(True)) != fingerprint(cell(False))


# ----------------------------------------------------------------------
# Slack under a governor: same run, different score
# ----------------------------------------------------------------------
_SCORED = ("missed", "failure_rate", "per_workload_failure", "config",
           "wall_seconds")


@pytest.mark.parametrize("scheme", ["ondemand", "conservative",
                                    "static-2.4"])
def test_slack_only_rescores_a_governor_cell(scheme):
    """FIFO dispatch under a governor never reads a deadline: along the
    slack axis (Figs 6-9) the run is the same run, standalone, and
    loosening the targets can only turn misses into hits."""
    runs = [run_experiment(ExperimentConfig(scheme=scheme, slack=slack,
                                            **_SHORT))
            for slack in (10.0, 40.0, 70.0, 100.0)]
    shared = [{f.name: getattr(run, f.name)
               for f in dataclasses.fields(run) if f.name not in _SCORED}
              for run in runs]
    assert all(fields == shared[0] for fields in shared[1:])
    misses = [run.missed for run in runs]
    assert misses == sorted(misses, reverse=True)
    assert misses[0] > misses[-1]  # the axis is not degenerate here
    for run in runs:
        assert run.failure_rate == run.missed / run.offered


# ----------------------------------------------------------------------
# Boundary validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field, value", [
    ("benchmark", "tpcx"),
    ("slack", math.nan),
    ("slack", math.inf),
    ("slack", 0.0),
    ("slack", -1.0),
    ("load_fraction", -0.1),
    ("load_fraction", math.nan),
    ("warmup_seconds", -1.0),
    ("drain_limit_seconds", -1.0),
    ("test_seconds", 0.0),
    ("test_seconds", -1.0),
    ("load_trace", []),
    ("timeline_bin_seconds", 0.0),
    ("timeline_bin_seconds", -5.0),
])
def test_out_of_range_config_is_rejected_naming_the_field(field, value):
    config = ExperimentConfig(**dict(_SHORT, **{field: value}))
    with pytest.raises(ValueError, match=field):
        run_experiment(config)


@pytest.mark.parametrize("sample", [math.nan, math.inf, -0.1, 7.0])
def test_bad_load_trace_sample_is_rejected_by_field_and_index(sample):
    """Before this rule a NaN sample ran to completion and 7.0 ran at
    seven times the configured load range."""
    config = ExperimentConfig(load_trace=[0.2, sample, 0.5])
    with pytest.raises(ValueError, match=r"load_trace.*at index 1"):
        config.validate()
    with pytest.raises(ValueError, match="load_trace"):
        run_experiment(config)  # fails at validate(), before any Simulator
    ExperimentConfig(load_trace=[0.0, 0.5, 1.0]).validate()


def test_unknown_benchmark_lists_the_known_ones():
    with pytest.raises(ValueError, match="tpcc.*ycsb-a"):
        ExperimentConfig(benchmark="tpcx").validate()


def test_validation_reaches_the_nested_fleet_config():
    with pytest.raises(ValueError, match="shard"):
        ExperimentConfig(fleet=FleetConfig(shards=0)).validate()


def test_build_and_train_probe_stays_valid():
    """bench/ measures setup with an (almost) empty cell."""
    result = run_experiment(ExperimentConfig(
        **dict(_SHORT, warmup_seconds=0.0, test_seconds=0.01)))
    assert result.offered >= 0


def test_zero_test_seconds_is_fine_under_a_load_trace():
    ExperimentConfig(test_seconds=0.0, load_trace=[0.5]).validate()
