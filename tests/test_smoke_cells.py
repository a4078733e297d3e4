"""Smoke cells: one cell per subsystem, sanitized and traced end to end.

Each cell runs twice with the simulation sanitizer auditing every
invariant and the tracer exporting a Chrome/Perfetto trace.  The
export must validate structurally, the second run's bytes must equal
the first's (chaos, autoscaling and shared frequency domains are
exactly as reproducible as a healthy server), power and failure rate
must repeat, the books must close, and each cell adds the one check
that shows its subsystem actually engaged.
"""

import dataclasses
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from pinned import elastic_cell

from repro.harness.experiment import (
    ExperimentConfig, RunFlags, run_experiment,
)
from repro.obs import validate_chrome_trace

SERVER = dict(scheme="polaris", load_fraction=0.6, slack=40.0, workers=2,
              warmup_seconds=0.3, test_seconds=1.0, seed=5)


def _scaled_both_ways(result, _blob):
    assert result.fleet_actions["scale_out"] > 0, result.fleet_actions
    assert result.fleet_actions["scale_in"] > 0, result.fleet_actions


def _faults_fired_and_load_was_shed(result, _blob):
    assert result.faults_injected > 0, result
    assert result.rejected > 0, result  # burst shedding engaged


def _shared_register_got_a_track(_result, blob):
    assert b"domain-0" in blob


#: label -> (config, the cell's own assertion or None).
CELLS = {
    "traced": (ExperimentConfig(**SERVER), None),
    # One Figure-6 cell under composed fault scenarios: the faults
    # layer's instants land in the trace.
    "chaos": (ExperimentConfig(faults="burst+brownout", **SERVER),
              _faults_fired_and_load_was_shed),
    # The schemes the arena promoted from the theory package: simsan
    # audits pstate-membership and freq-monotone on every replan.
    **{f"arena-{scheme}": (ExperimentConfig(**dict(SERVER, scheme=scheme)),
                           None)
       for scheme in ("oa-online", "avr-online", "nonclairvoyant")},
    # All cores of a socket in one frequency domain: domain-coherence
    # and domain-max-rule audit every resolve.
    "per-socket": (ExperimentConfig(**dict(
        SERVER, workers=4, topology="per-socket",
        topology_switch_latency=50e-6)), _shared_register_got_a_track),
    # 2 shards x (primary + replica) under the 1000x diurnal trace:
    # fleet-scope conservation across node drains.
    "fleet": (dataclasses.replace(elastic_cell(), trace=None),
              _scaled_both_ways),
}


@pytest.mark.parametrize("label", sorted(CELLS))
def test_smoke_cell_sanitized_traced_and_byte_identical(label, tmp_path):
    config, also = CELLS[label]
    runs = []
    for attempt in ("first", "second"):
        cell = dataclasses.replace(
            config,
            trace_path=str(tmp_path / f"{attempt}.trace.json"),
            trace_series_path=str(tmp_path / f"{attempt}.series.csv"))
        flags = dataclasses.replace(RunFlags.resolve(cell), sanitize=True)
        assert flags.trace  # an export path asks for a trace
        result = run_experiment(cell, flags=flags)
        with open(cell.trace_path, "rb") as handle:
            runs.append((result, handle.read()))
        assert os.path.getsize(cell.trace_series_path) > 0
    (first, blob), (second, again) = runs
    assert first.trace_events > 0 and first.completed > 0, first
    assert first.offered == first.completed + first.rejected + first.lost
    stats = validate_chrome_trace(str(tmp_path / "first.trace.json"))
    assert stats["phase_counts"]["B"] == stats["phase_counts"]["E"]
    assert stats["phase_counts"]["b"] == stats["phase_counts"]["e"]
    assert again == blob
    assert (first.avg_power_watts, first.failure_rate) \
        == (second.avg_power_watts, second.failure_rate)
    if also is not None:
        also(first, blob)
