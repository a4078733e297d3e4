"""The pinned-fingerprint harness: one grid, fingerprint and golden
file per tier.

Optimisations in this repo promise *exact* result identity, so each
tier pins the full-precision ``repr`` of every seed-deterministic
result field of a small, diverse set of cells:

``server``  (``data/pinned_results.json``) the single-server hot paths,
            captured from the serial, heapq-engine, unbatched-RNG code
            before the PR-6 optimisations;
``fleet``   (``data/pinned_fleet.json``) the elastic-vs-static
            acceptance pair on the 1000x-scaled diurnal trace plus a
            read-heavy replica-serving cell --- adds the fleet fields;
``chaos``   (``data/pinned_chaos.json``) that elastic cell under
            crash-per-shard, with and without failover --- adds the
            availability fields.

A tier's fingerprint is the ``+``-joined ``repr`` of one dict per tier
up to and including it, so a stored golden reads back with
``ast.literal_eval`` and :func:`assert_pinned` can say *which field*
moved (``freq_residency[2.0]: 0.688 -> 0.691``) instead of showing two
kilobyte strings.

Regenerate after an *intentional* semantic change, and say so in the
PR description::

    PYTHONPATH=src python tests/pinned.py --write [server|fleet|chaos ...]
"""

from __future__ import annotations

import ast
import json
import os
import random
import re
import sys
from typing import Dict, Iterator, List

from repro.fleet.config import FleetConfig
from repro.harness.experiment import (
    ExperimentConfig, ExperimentResult, run_experiment,
)
from repro.workloads.traces import normalize, synthesize_diurnal_trace

TIERS = ("server", "fleet", "chaos")

_DATA_FILES = {"server": "pinned_results.json", "fleet": "pinned_fleet.json",
               "chaos": "pinned_chaos.json"}

#: Result fields each tier adds to the fingerprint, in golden order;
#: dict-valued fields are pinned as their sorted items.
_FIELDS = {
    "server": (
        "scheme_label", "avg_power_watts", "failure_rate", "offered",
        "completed", "missed", "rejected", "throughput", "peak_throughput",
        "per_workload_failure", "per_workload_offered", "cpu_energy_joules",
        "wall_energy_joules", "freq_residency", "power_timeline",
        "load_timeline", "mean_latency_by_workload", "trace_events",
        "faults_injected", "degradation_actions", "lost", "sim_events"),
    "fleet": (
        "per_shard_failure", "per_shard_offered", "stale_reads",
        "fleet_actions", "node_timeline"),
    "chaos": (
        "availability", "lost_commits", "failovers", "mttr_s",
        "unserved_shards", "p999_latency_s", "failover_timeline",
        "faults_injected"),
}


def data_path(tier: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", _DATA_FILES[tier])


def load_pins(tier: str) -> Dict[str, str]:
    with open(data_path(tier)) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
_SHORT = dict(workers=2, warmup_seconds=0.3, test_seconds=0.8)


def _server_cells() -> List[ExperimentConfig]:
    return [
        # POLARIS on the Figure 6 shape (tight slack, medium load).
        ExperimentConfig(scheme="polaris", slack=10.0, workers=4,
                         warmup_seconds=0.5, test_seconds=1.5, seed=11),
        # Static baseline and both Linux governors.
        ExperimentConfig(scheme="static-2.8", slack=70.0, seed=5, **_SHORT),
        ExperimentConfig(scheme="static-1.2", slack=40.0, seed=5,
                         load_fraction=0.3, **_SHORT),
        ExperimentConfig(scheme="ondemand", slack=40.0, seed=7, **_SHORT),
        ExperimentConfig(scheme="conservative", slack=40.0, seed=7, **_SHORT),
        # Other benchmarks (tpce spike-model draws, ycsb mix).
        ExperimentConfig(benchmark="tpce", scheme="polaris", slack=40.0,
                         seed=13, **_SHORT),
        ExperimentConfig(benchmark="ycsb-a", scheme="polaris", slack=40.0,
                         seed=13, **_SHORT),
        # Tier policy exercises the unbatchable randrange() stream.
        ExperimentConfig(scheme="polaris", workload_policy="tiers",
                         tier_targets={"gold": 7.5e-3, "silver": 37.5e-3},
                         seed=9, **_SHORT),
        # Faults wrap the estimator with a time-varying proxy (the
        # mu-vector cache must stay disabled there).
        ExperimentConfig(scheme="polaris", slack=40.0, seed=3,
                         faults="burst+brownout", **_SHORT),
        # Shared-frequency domains and the packing/parking extension.
        ExperimentConfig(scheme="polaris", slack=40.0, seed=11, workers=4,
                         warmup_seconds=0.3, test_seconds=0.8,
                         topology="per-socket",
                         topology_switch_latency=50e-6),
        ExperimentConfig(scheme="polaris", slack=40.0, seed=11, workers=4,
                         warmup_seconds=0.3, test_seconds=0.8,
                         routing="packing", cstate_ladder="deep"),
        # Time-varying load trace (arrival-rate schedule path).
        ExperimentConfig(scheme="polaris", slack=40.0, seed=21,
                         load_trace=[0.2, 0.9, 0.5], **_SHORT),
        # Scheduler variants and ablations.
        ExperimentConfig(scheme="polaris-fifo", slack=10.0, seed=5, **_SHORT),
        ExperimentConfig(scheme="polaris-shed", slack=10.0, seed=5,
                         load_fraction=0.9, **_SHORT),
        ExperimentConfig(scheme="polaris", slack=10.0, seed=5,
                         estimator_mixed_freq_updates=True, **_SHORT),
        # The scheduler arena's promoted online algorithms, one healthy
        # cell each plus one arena fault round.
        ExperimentConfig(scheme="oa-online", slack=40.0, seed=5, **_SHORT),
        ExperimentConfig(scheme="avr-online", slack=40.0, seed=5, **_SHORT),
        ExperimentConfig(scheme="nonclairvoyant", slack=40.0, seed=5,
                         **_SHORT),
        ExperimentConfig(scheme="oa-online", slack=40.0, seed=3,
                         faults="dying-core", **_SHORT),
    ]


def cell_label(config: ExperimentConfig) -> str:
    parts = [config.benchmark, config.scheme, f"seed{config.seed}",
             f"slack{config.slack:g}", f"load{config.load_fraction:g}"]
    if config.workload_policy != "per-type":
        parts.append(config.workload_policy)
    if config.faults:
        parts.append("faults")
    if config.topology != "per-core":
        parts.append(config.topology)
    if config.routing != "rh-round-robin":
        parts.append(config.routing)
    if config.load_trace:
        parts.append("trace-load")
    if config.estimator_mixed_freq_updates:
        parts.append("mixedfreq")
    return ":".join(parts)


def acceptance_trace() -> List[float]:
    """16 virtual seconds of the diurnal shape, scaled to absolute
    rates by 1000x, then normalized for the harness's low..high
    fraction mapping."""
    return normalize(synthesize_diurnal_trace(16, random.Random(7),
                                              peak_rate_scale=1000.0))


def _diurnal_cell(fleet: FleetConfig, faults=None) -> ExperimentConfig:
    return ExperimentConfig(
        benchmark="tpcc", scheme="polaris", slack=60.0,
        warmup_seconds=0.5, drain_limit_seconds=5.0, seed=11,
        load_trace=acceptance_trace(), trace_low_fraction=0.1,
        trace_high_fraction=0.4, trace=False, fleet=fleet, faults=faults)


def elastic_cell() -> ExperimentConfig:
    return _diurnal_cell(FleetConfig(elastic=True))


def static_peak_cell() -> ExperimentConfig:
    return _diurnal_cell(FleetConfig(elastic=False))


#: The chaos plan: every shard's primary fail-stops at 1.5 s, mid-test.
CHAOS_SCENARIO = "shard-crash"


def failover_cell() -> ExperimentConfig:
    """The elastic acceptance cell under crash-per-shard, failover on."""
    return _diurnal_cell(FleetConfig(elastic=True), CHAOS_SCENARIO)


def no_failover_cell() -> ExperimentConfig:
    """Same crashes, failover machinery off: the availability baseline."""
    return _diurnal_cell(FleetConfig(elastic=True, failover_enabled=False),
                         CHAOS_SCENARIO)


def pinned_grid(tier: str = "server") -> Dict[str, ExperimentConfig]:
    """``label -> config`` of one tier.  Every cell pins ``trace=False``:
    the goldens were captured untraced, and ambient ``REPRO_TRACE=1``
    would otherwise flip ``trace_events`` --- the pins assert
    optimisation-identity, not trace-invariance."""
    if tier == "server":
        cells = _server_cells()
        grid = {cell_label(config): config for config in cells}
        assert len(grid) == len(cells), "duplicate cell label"
    elif tier == "fleet":
        grid = {
            "fleet-elastic-diurnal": elastic_cell(),
            "fleet-static-peak-diurnal": static_peak_cell(),
            "fleet-ycsb-b-replicas": ExperimentConfig(
                benchmark="ycsb-b", scheme="polaris", slack=40.0,
                warmup_seconds=0.3, test_seconds=1.0, seed=13,
                fleet=FleetConfig(shards=1, replicas_per_shard=2,
                                  node_workers=2, elastic=False)),
        }
    else:
        grid = {"chaos-failover-diurnal": failover_cell(),
                "chaos-no-failover-diurnal": no_failover_cell()}
    for config in grid.values():
        config.trace = False
    return grid


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _parts(result: ExperimentResult, tier: str) -> List[Dict[str, object]]:
    parts = []
    for name in TIERS[:TIERS.index(tier) + 1]:
        part = {}
        for field in _FIELDS[name]:
            value = getattr(result, field)
            part[field] = sorted(value.items()) \
                if isinstance(value, dict) else value
        parts.append(part)
    return parts


def fingerprint(result: ExperimentResult, tier: str = "server") -> str:
    """Full-precision repr of every seed-deterministic result field."""
    return "+".join(repr(part) for part in _parts(result, tier))


def _moved(path: str, old, new) -> Iterator[str]:
    """One line per leaf that differs, descending into lists and into
    ``[(key, value), ...]`` item lists by key."""
    if isinstance(old, (list, tuple)) and isinstance(new, (list, tuple)):
        def keyed(items):
            return all(isinstance(item, tuple) and len(item) == 2
                       and isinstance(item[0], (str, int, float))
                       for item in items) \
                and len({item[0] for item in items}) == len(items)
        if keyed(old) and keyed(new) and (old or new):
            old, new = dict(old), dict(new)
            keys = list(dict.fromkeys([*old, *new]))
        else:
            keys = range(max(len(old), len(new)))
            old, new = dict(enumerate(old)), dict(enumerate(new))
        for key in keys:
            yield from _moved(f"{path}[{key!r}]" if isinstance(key, str)
                              else f"{path}[{key}]",
                              old.get(key, "<absent>"),
                              new.get(key, "<absent>"))
    elif old != new:
        yield f"{path}: {old!r} -> {new!r}"


def moved_fields(pinned: str, result: ExperimentResult,
                 tier: str = "server") -> List[str]:
    """What moved between a stored fingerprint and ``result``."""
    stored = [ast.literal_eval(part)
              for part in re.split(r"(?<=\})\+(?=\{)", pinned)]
    lines: List[str] = []
    for old, new in zip(stored, _parts(result, tier)):
        for field in dict.fromkeys([*old, *new]):
            lines.extend(_moved(field, old.get(field, "<absent>"),
                                new.get(field, "<absent>")))
    return lines


def assert_pinned(label: str, result: ExperimentResult,
                  tier: str = "server") -> None:
    """Fail with the field-level diff unless ``result`` still has the
    fingerprint stored for ``label``."""
    pinned = load_pins(tier)[label]
    actual = fingerprint(result, tier)
    if actual != pinned:
        lines = moved_fields(pinned, result, tier) \
            or [f"{pinned} -> {actual}"]
        raise AssertionError(
            f"{tier} cell {label} diverged from its pinned fingerprint:\n  "
            + "\n  ".join(lines))


def main(argv: List[str]) -> int:
    if "--write" not in argv:
        print(__doc__)
        return 1
    for tier in [arg for arg in argv if arg in TIERS] or TIERS:
        pins = {label: fingerprint(run_experiment(config), tier)
                for label, config in pinned_grid(tier).items()}
        with open(data_path(tier), "w") as handle:
            json.dump(pins, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(pins)} {tier} pins -> {data_path(tier)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
