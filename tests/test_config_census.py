"""The config census: every field of a config dataclass has a caller.

A field earns its place only when something other than the tests sets
it to a second value: a ``FIGURES`` cell, the CLI, the frozen
``bench/`` or a documented experiment.  A field with one value in use
is a module constant of the component that reads it instead, and
stays out of the dataclass, its ``validate()`` and the sweep-cache
key (DESIGN.md §9 lists each field that went).

The census runs what it can: every ``FIGURES`` cell, and every fault
scenario and checked-in plan.  A field set from anywhere else is on
``ALLOWED`` with the file that sets it.  The entry goes stale, and
fails the census, once that file no longer sets the field: it writes
neither ``field=`` nor the quoted name (``cli.py``'s ``setattr`` loop,
``FigureOptions.base_config``'s keyword dict).
"""

import pathlib
import re
from dataclasses import fields

from repro.faults.plan import DegradationPolicy, FaultPlan
from repro.faults.scenarios import FLEET_SCENARIOS, SCENARIOS
from repro.fleet.config import FleetConfig
from repro.harness import figures
from repro.harness.experiment import ExperimentConfig
from repro.harness.figures import FIGURES, FigureOptions

ROOT = pathlib.Path(__file__).resolve().parent.parent

_ABLATIONS = ("benchmarks/test_ablations.py",
              "an ablation EXPERIMENTS.md reports; CI's paper-claim step "
              "runs it")
_CLI = ("src/repro/harness/cli.py", "a CLI flag")
_FLEET_SHAPE = ("src/repro/harness/figures.py",
                "fleet shape: every fleet figure sizes its fleet")

#: "Class.field" -> (the file that sets it, why it is a caller).
ALLOWED = {
    "ExperimentConfig.request_handlers": (
        "bench/workloads.py", "the frozen benchmark sets 4"),
    "ExperimentConfig.warmup_seconds": (
        "src/repro/harness/figures.py", "FigureOptions' run size"),
    "ExperimentConfig.seed": (
        "src/repro/harness/figures.py", "FigureOptions' seed (CLI --seed)"),
    "ExperimentConfig.trace": (
        "bench/runner.py", "the frozen benchmark's traced repetitions"),
    "ExperimentConfig.trace_path": (
        "src/repro/harness/figures.py", "CLI --trace DIR, one per cell"),
    "ExperimentConfig.trace_series_path": (
        "src/repro/harness/figures.py", "CLI --trace DIR, one per cell"),
    "ExperimentConfig.estimator_percentile": _ABLATIONS,
    "ExperimentConfig.estimator_window": _ABLATIONS,
    "ExperimentConfig.estimator_mixed_freq_updates": _ABLATIONS,
    "ExperimentConfig.transition_latency": _ABLATIONS,
    "FleetConfig.shards": _FLEET_SHAPE,
    "FleetConfig.replicas_per_shard": _FLEET_SHAPE,
    "FleetConfig.node_workers": _FLEET_SHAPE,
    **{f"FigureOptions.{name}": _CLI
       for name in ("workers", "test_seconds", "trace_seconds", "seed",
                    "jobs", "use_cache", "report", "trace_dir", "faults")},
    **{f"FigureOptions.{name}": (
        "tests/test_figures.py", "run size: tier-1 runs every figure small")
       for name in ("warmup_seconds", "slacks")},
}


def _off_default(cls, instances):
    """Fields some instance sets off their default."""
    default = cls()
    return {field.name for field in fields(cls) for instance in instances
            if getattr(instance, field.name) != getattr(default, field.name)}


def _armed(policies):
    """A policy's default means *off*.  A bool is a switch, in use once
    a plan turns it on; any other field needs two settings off its
    default, or it is a switch plus one constant."""
    default = DegradationPolicy()
    used = set()
    for field in fields(DegradationPolicy):
        off = getattr(default, field.name)
        settings = {getattr(policy, field.name) for policy in policies} \
            - {off}
        if len(settings) >= (1 if isinstance(off, bool) else 2):
            used.add(field.name)
    return used


def census(allowed):
    """Every way the config dataclasses and ``allowed`` disagree."""
    cells = [config for figure in FIGURES.values()
             for _key, config in figure.cells(
                 figures.FigureOptions(trace_seconds=10))]
    plans = [factory() for factory in (*SCENARIOS.values(),
                                       *FLEET_SCENARIOS.values())]
    plans.append(FaultPlan.from_json(
        (ROOT / "tests" / "data" / "plans" / "skew.json").read_text()))
    in_use = {
        ExperimentConfig: _off_default(ExperimentConfig, cells),
        FleetConfig: _off_default(
            FleetConfig, [cell.fleet for cell in cells if cell.fleet]),
        FigureOptions: set(),  # no cell sets a run size
        DegradationPolicy: _armed([plan.degradation for plan in plans]),
    }
    problems = [f"{cls.__name__}.{field.name}: one value in use"
                for cls, used in in_use.items() for field in fields(cls)
                if field.name not in used
                and f"{cls.__name__}.{field.name}" not in allowed]
    classes = {cls.__name__: cls for cls in in_use}
    for key, (path, _why) in allowed.items():
        cls_name, name = key.split(".")
        cls = classes.get(cls_name)
        if cls is None or name not in {f.name for f in fields(cls)}:
            problems.append(f"{key}: no such field")
        elif name in in_use[cls]:
            problems.append(f"{key}: a census cell sets it; drop the entry")
        elif not re.search(rf"\b{name}\s*=(?!=)|[\"']{name}[\"']",
                           (ROOT / path).read_text()):
            problems.append(f"{key}: {path} no longer sets it")
    return problems


def test_every_config_field_is_set_by_a_caller():
    problems = census(ALLOWED)
    assert problems == [], "\n".join(problems)


def test_a_stale_allow_list_entry_fails_the_census():
    stale = {
        # The file stopped setting the field ...
        "ExperimentConfig.transition_latency": (
            "bench/workloads.py", "stale"),
        # ... the field went ...
        "ExperimentConfig.drain_limit_seconds": ("tests/pinned.py", "gone"),
        # ... or a figure cell sets it, so the entry is not needed.
        "ExperimentConfig.routing": ("src/repro/harness/figures.py", "dup"),
    }
    assert census({**ALLOWED, **stale}) == [
        "ExperimentConfig.transition_latency: bench/workloads.py no "
        "longer sets it",
        "ExperimentConfig.drain_limit_seconds: no such field",
        "ExperimentConfig.routing: a census cell sets it; drop the entry"]
