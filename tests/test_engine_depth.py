"""The engine's heap is sound only while pending depth is O(cores).

``repro.sim.engine`` pays O(log n) per push and pop where a calendar
queue paid O(1); that is the better trade because arrivals
self-schedule one at a time, so the heap holds about one completion per
busy core plus a few timers (48 on the 16-core cell below when this was
written).  Anything that starts pre-scheduling a whole trace should
fail here, not quietly slow every run.
"""

import pytest

from repro.fleet.experiment import FleetConfig
from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.workloads.traces import normalize, synthesize_diurnal_trace

SAMPLE_PERIOD_S = 1e-3

SERVER = dict(benchmark="tpcc", workers=16, request_handlers=4,
              load_fraction=0.9, slack=40, warmup_seconds=0.25,
              test_seconds=0.75, seed=7)
CELLS = {
    "server-ondemand": (16, ExperimentConfig(scheme="ondemand", **SERVER)),
    "server-polaris": (16, ExperimentConfig(scheme="polaris", **SERVER)),
    "fleet-2x2-elastic": (8, ExperimentConfig(
        benchmark="tpcc", scheme="polaris", slack=60, seed=7,
        warmup_seconds=0.25, trace_low_fraction=0.1, trace_high_fraction=0.4,
        load_trace=normalize(synthesize_diurnal_trace(2, seed=7)),
        fleet=FleetConfig(elastic=True, shards=2, replicas_per_shard=1,
                          node_workers=2))),
}


@pytest.mark.parametrize("label", CELLS)
def test_pending_depth_stays_proportional_to_cores(label, monkeypatch):
    cores, config = CELLS[label]
    depths = []

    class SampledSimulator(experiment.Simulator):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.schedule(0.0, self._sample_depth)

        def _sample_depth(self):
            depths.append(self.heap_size())
            self.schedule(SAMPLE_PERIOD_S, self._sample_depth)

    monkeypatch.setattr(experiment, "Simulator", SampledSimulator)
    result = run_experiment(config)
    assert result.offered > 500 and len(depths) > 500  # the cell really ran
    assert max(depths) <= 4 * cores + 16, (max(depths), cores)
