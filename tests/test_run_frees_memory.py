"""A finished run frees what it built, by reference count.

Arrays and floats are not tracked by the cyclic collector, so a run
graph left in reference cycles pins megabytes (the recorder's log, the
estimator's windows) until a full collection that CPython schedules
rarely: a process running many cells grew by about one run per cell.
``run_experiment`` tears its graph down when it returns; this test runs
each kind of cell twice, then collects with ``gc.DEBUG_SAVEALL`` and
fails on any object of a ``repro.`` type that only the cyclic
collector could have found.
"""

import dataclasses
import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from pinned import elastic_cell, failover_cell

from repro.harness.experiment import (
    ExperimentConfig, ExperimentResult, rescored, run_experiment,
)
from repro.metrics.latency import LatencyRecorder

_SHORT = dict(slack=40.0, workers=2, warmup_seconds=0.3, test_seconds=0.8,
              trace=False)

CELLS = {
    "polaris": ExperimentConfig(scheme="polaris", seed=5, **_SHORT),
    "ondemand": ExperimentConfig(scheme="ondemand", seed=7, **_SHORT),
    "elastic-fleet": dataclasses.replace(elastic_cell(), trace=False),
    "chaos-fleet": dataclasses.replace(failover_cell(), trace=False),
    "traced": ExperimentConfig(scheme="polaris", seed=5,
                               **dict(_SHORT, trace=True)),
    "oa-online-dying-core": ExperimentConfig(
        scheme="oa-online", seed=3, faults="dying-core", **_SHORT),
}


def _cyclic_repro_garbage(run) -> list:
    """Type names of the ``repro.`` objects the cyclic collector finds
    after ``run()``."""
    gc.collect()
    run()
    run()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                       for o in gc.garbage
                       if type(o).__module__.startswith("repro.")})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("label", sorted(CELLS))
def test_run_graph_dies_by_refcount(label):
    config = CELLS[label]
    assert _cyclic_repro_garbage(lambda: run_experiment(config)) == []


def _scored(result: ExperimentResult) -> ExperimentResult:
    return dataclasses.replace(result, wall_seconds=0.0)


def test_caller_recorder_survives_the_teardown_and_rescores():
    """The recorder a caller passes in outlives the run's graph and
    still rescores: the shared-simulation path of a sweep."""
    config = CELLS["ondemand"]
    kept = []

    def run():
        recorder = LatencyRecorder()
        kept.append((run_experiment(config, recorder=recorder), recorder))

    assert _cyclic_repro_garbage(run) == []
    result, recorder = kept[-1]
    assert recorder.total_completed == result.completed > 0
    tighter = dataclasses.replace(config, slack=10.0)
    again = rescored(result, recorder, tighter)
    assert _scored(again) == _scored(run_experiment(tighter))
    assert again.missed > result.missed


class _Crash(Exception):
    pass


class _CrashingRecorder(LatencyRecorder):
    """Raises out of the first completion it hears about."""

    def on_completion(self, request):
        raise _Crash


def test_a_run_that_raises_is_torn_down_too():
    """A cell that raises mid-run (a sweep counts it as failed and goes
    on) leaves no cycles either."""
    config = CELLS["polaris"]

    def run():
        with pytest.raises(_Crash):
            run_experiment(config, recorder=_CrashingRecorder())

    assert _cyclic_repro_garbage(run) == []
