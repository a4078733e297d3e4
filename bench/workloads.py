"""Workload inputs: ``ExperimentConfig`` objects built from a seed.

The program under test receives only these configs; it never learns a
workload's name.  Sizes are a quarter to a fifth of the simulated
seconds the issue sketched (1-1.5 host-seconds per repetition instead
of 5-7): on this container's shared cores a run's median is only steady
over a dozen or more repetitions, each bracketed by host-speed slices,
and a driver run is 30 s.  Worker count, load and scheme are untouched.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Sequence

from repro.fleet.config import FleetConfig
from repro.harness.experiment import ExperimentConfig
from repro.workloads.traces import normalize, synthesize_diurnal_trace

#: The diurnal trace's *shape* is part of fleet_diurnal's definition,
#: not of its seed: a seed-derived shape moves offered load by +-9 % and
#: mean power by +-10 % between seeds, which would drown every bound.
#: ``--seed`` still drives arrivals, service times, keys, replica lags
#: and boot latencies through ``ExperimentConfig.seed``.
DIURNAL_TRACE_SEED = 42

SWEEP_SCHEMES = ("polaris", "ondemand", "conservative")
SWEEP_SLACKS = (10, 40, 70, 100)


def build(name: str, seed: int, smoke: bool = False) -> List[ExperimentConfig]:
    """The cells of workload ``name``: one config, or the sweep's grid.

    ``smoke`` shrinks every cell to at most two simulated seconds (the
    warm-up repetition and ``test_bench.py`` use it).
    """
    warmup = 0.25 if smoke else 0.5 if name == "sweep_grid" else 1.0
    if name in ("server_polaris", "server_governor"):
        polaris = name == "server_polaris"
        seconds = (1.0 if smoke else 1.5) if polaris \
            else (2.0 if smoke else 6.0)
        return [ExperimentConfig(
            benchmark="tpcc", scheme="polaris" if polaris else "ondemand",
            workers=16, request_handlers=4, load_fraction=0.9, slack=40,
            warmup_seconds=warmup, test_seconds=seconds, seed=seed)]
    if name == "fleet_diurnal":
        trace = normalize(synthesize_diurnal_trace(
            2 if smoke else 24, random.Random(DIURNAL_TRACE_SEED),
            peak_rate_scale=1000))
        return [ExperimentConfig(
            benchmark="tpcc", scheme="polaris", slack=60, seed=seed,
            warmup_seconds=warmup, load_trace=trace,
            trace_low_fraction=0.1, trace_high_fraction=0.4,
            fleet=FleetConfig(elastic=True, shards=2, replicas_per_shard=1,
                              node_workers=2))]
    if name == "sweep_grid":
        return [ExperimentConfig(
            benchmark="tpcc", scheme=scheme, slack=slack, load_fraction=0.6,
            workers=8, warmup_seconds=warmup,
            test_seconds=0.5 if smoke else 1.0, seed=seed)
            for scheme in SWEEP_SCHEMES for slack in SWEEP_SLACKS]
    raise KeyError(f"unknown workload {name!r}")


def build_train_only(cells: Sequence[ExperimentConfig]
                     ) -> List[ExperimentConfig]:
    """The same cells with (almost) nothing to simulate: what is left is
    building the server or fleet and training the estimators."""
    return [dataclasses.replace(cell, warmup_seconds=0.0, test_seconds=0.01,
                                load_trace=None) for cell in cells]
