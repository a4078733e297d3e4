"""The config census: every config field and every parameter default
has a caller.

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

The same rule reaches signatures.  An ``ast`` walk lists every
defaulted parameter of every function and method under ``src/repro``
(a leading underscore marks a closure binding such as
``factory(_base=factory)``, and is skipped).  A parameter has a caller
when a call in ``src/``, ``bench/`` or ``benchmarks/`` whose callee
name matches (the class name for ``__init__``) passes it by keyword,
or by position past it; tests and examples are not callers.  Indirect
setters (``cls(..., sanitize=)``, ``partial(..., site=)``) and the
reference oracles tests compare against are on ``ALLOWED`` under
``"Qualname(parameter=)"`` keys, and go stale by the same three rules.
"""

import ast
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
    # Signatures: indirect setters ...
    "PolarisScheduler(sanitize=)": (
        "src/repro/harness/schemes.py",
        "Scheme.make_scheduler_factory builds through cls(..., sanitize=)"),
    "WorkloadManager(workloads=)": (
        "src/repro/core/workload.py",
        "WorkloadManager.tiers builds through cls(workloads=)"),
    **{f"LatencyRecorder.{hook}(site=)": (
        "src/repro/fleet/experiment.py",
        "each shard's hooks are partial(recorder.<hook>, site=)")
       for hook in ("on_completion", "on_rejection")},
    # ... and the reference oracles the tests compare against.
    **{f"ListSlidingWindowPercentile({name}=)": (
        "tests/test_estimator.py",
        "the oracle SlidingWindowPercentile is held to, at its shapes")
       for name in ("window", "percentile")},
    "Schedule.check_feasible(preemptive=)": (
        "tests/test_theory_model.py",
        "the feasibility oracle, checked both ways on one schedule"),
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
        if key.endswith("=)"):
            continue  # a signature entry (signature_census)
        cls_name, name = key.split(".")
        cls = classes.get(cls_name)
        if cls is None or name not in {f.name for f in fields(cls)}:
            problems.append(f"{key}: no such field")
        elif name in in_use[cls]:
            problems.append(f"{key}: a census cell sets it; drop the entry")
        elif not _sets(path, name):
            problems.append(f"{key}: {path} no longer sets it")
    return problems


def _sets(path, name):
    """Whether the file at ``path`` writes ``name=`` or the quoted
    name."""
    return re.search(rf"\b{name}\s*=(?!=)|[\"']{name}[\"']",
                     (ROOT / path).read_text()) is not None


def _is_staticmethod(node):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in node.decorator_list)


def defaulted_parameters():
    """``"Qualname(parameter=)"`` -> (where, callee name, parameter,
    positional index past the receiver or None) for every defaulted
    public parameter of a function or method under ``src/repro``."""
    found = {}

    def visit(node, path, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                init = in_class and child.name == "__init__"
                callee = in_class if init else child.name
                shown = prefix[:-1] if init else qualname
                args = child.args
                positional = args.posonlyargs + args.args
                receiver = 1 if in_class and not _is_staticmethod(child) \
                    else 0
                first = len(positional) - len(args.defaults)
                params = [(arg.arg, index - receiver)
                          for index, arg in enumerate(positional)
                          if index >= first]
                params += [(arg.arg, None) for arg, default
                           in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None]
                for name, index in params:
                    if not name.startswith("_"):
                        found[f"{shown}({name}=)"] = (
                            f"{path}:{child.lineno}", callee, name, index)
                visit(child, path, qualname + ".", None)

    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(ROOT), "",
              None)
    return found


def _calls():
    """(callee name, keywords passed, positional count) of every call
    in ``src/``, ``bench/`` and ``benchmarks/``."""
    calls = []
    for top in ("src", "bench", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                positional = sum(not isinstance(arg, ast.Starred)
                                 for arg in node.args)
                calls.append((name, {k.arg for k in node.keywords},
                              positional))
    return calls


def signature_census(allowed):
    """Every way the defaulted parameters under ``src/repro`` and the
    signature entries of ``allowed`` disagree."""
    calls = _calls()
    params = defaulted_parameters()

    def has_caller(callee, name, index):
        return any(called == callee and (
            name in keywords or (index is not None and positional > index))
            for called, keywords, positional in calls)

    in_use = {key for key, (_where, callee, name, index) in params.items()
              if has_caller(callee, name, index)}
    problems = [f"{where} {key}: no caller sets it"
                for key, (where, *_rest) in params.items()
                if key not in in_use and key not in allowed]
    for key, (path, _why) in allowed.items():
        if not key.endswith("=)"):
            continue
        if key not in params:
            problems.append(f"{key}: no such parameter")
        elif key in in_use:
            problems.append(f"{key}: a caller sets it; drop the entry")
        elif not _sets(path, params[key][2]):
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


def test_every_parameter_default_is_set_by_a_caller():
    problems = signature_census(ALLOWED)
    assert problems == [], "\n".join(problems)


def test_a_stale_signature_entry_fails_the_census():
    stale = {
        # The file stopped setting the parameter ...
        "Schedule.check_feasible(preemptive=)": (
            "tests/test_theory_avr.py", "stale"),
        # ... the parameter went ...
        "oa_schedule(record_speeds=)": ("tests/test_theory_model.py",
                                        "gone"),
        # ... or a call in src/ sets it, so the entry is not needed.
        "PowerMeter(interval=)": ("src/repro/harness/experiment.py",
                                  "dup"),
    }
    assert signature_census({**ALLOWED, **stale}) == [
        "Schedule.check_feasible(preemptive=): "
        "tests/test_theory_avr.py no longer sets it",
        "oa_schedule(record_speeds=): no such parameter",
        "PowerMeter(interval=): a caller sets it; drop the entry"]
