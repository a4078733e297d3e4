"""The enable contract: sanitizer, tracer and fault plan are resolved
once per cell into a ``RunFlags`` (explicit config field > environment)
and that value is what runs, what is hashed and what is shipped."""

import ast
import builtins
import multiprocessing
import os
import pathlib

import pytest

import repro.harness
from repro.analysis.sanitizer import SimulationInvariantError
from repro.core.polaris import PolarisScheduler
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import scenario_named
from repro.harness import parallel as par
from repro.harness.experiment import (
    ExperimentConfig, RunFlags, run_experiment,
)
from repro.harness.parallel import SweepRunner, config_key
from repro.sim.engine import Simulator

FAST = dict(workers=2, warmup_seconds=0.2, test_seconds=0.4, seed=5)
SWITCHES = ("REPRO_SIMSAN", "REPRO_TRACE", "REPRO_FAULTS")


@pytest.fixture
def clean_env(monkeypatch):
    for name in SWITCHES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_resolve_explicit_field_beats_environment(clean_env, tmp_path):
    plain = ExperimentConfig(**FAST)
    assert RunFlags.resolve(plain) == RunFlags(False, False, None)
    clean_env.setenv("REPRO_SIMSAN", "1")
    clean_env.setenv("REPRO_TRACE", "1")
    clean_env.setenv("REPRO_FAULTS", "burst")
    flags = RunFlags.resolve(plain)
    assert (flags.sanitize, flags.trace, flags.plan.name) \
        == (True, True, "burst")
    forced = RunFlags.resolve(ExperimentConfig(
        trace=False, faults="brownout", **FAST))
    assert (forced.trace, forced.plan.name) == (False, "brownout")
    # An empty plan is the force-healthy spelling.
    assert RunFlags.resolve(
        ExperimentConfig(faults=FaultPlan(), **FAST)).plan is None
    clean_env.delenv("REPRO_TRACE")
    # Asking for an export asks for a trace.
    assert RunFlags.resolve(ExperimentConfig(
        trace_path=str(tmp_path / "t.json"), **FAST)).trace


def test_explicit_flags_run_and_nothing_inside_reads_the_switches(
        clean_env):
    """The flags handed to ``run_experiment`` are the run: with all
    three variables set against them, the simulator, every scheduler,
    the tracer and the fault layer follow the flags, and none of the
    variables is even looked up."""
    for name, value in zip(SWITCHES, ("1", "1", "burst")):
        clean_env.setenv(name, value)
    reads = []

    class SpyEnviron(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    clean_env.setattr(os, "environ", SpyEnviron(os.environ))
    built = []
    real_init = PolarisScheduler.__init__

    def spying_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.sanitize)

    clean_env.setattr(PolarisScheduler, "__init__", spying_init)
    config = ExperimentConfig(scheme="polaris", **FAST)
    off = run_experiment(config, flags=RunFlags(False, False, None))
    assert not set(SWITCHES) & set(reads)
    assert built == [False] * config.workers
    assert (off.trace_events, off.faults_injected) == (0, 0)
    # And in the other direction, against an empty environment.
    for name in SWITCHES:
        del os.environ[name]
    del built[:]
    on = run_experiment(config, flags=RunFlags(
        True, True, scenario_named("burst")))
    assert built == [True] * config.workers
    assert on.trace_events > 0 and on.faults_injected > 0
    assert not set(SWITCHES) & set(reads)


def test_env_plan_file_is_opened_once_per_cell_and_keys_its_entry(
        clean_env, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(scenario_named("burst").to_json())
    clean_env.setenv("REPRO_FAULTS", str(plan_path))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(plan_path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    clean_env.setattr(builtins, "open", counting_open)
    shipped = []
    real_run = par.run_experiment

    def spying_run(config, **kwargs):
        shipped.append(kwargs["flags"])
        return real_run(config, **kwargs)

    clean_env.setattr(par, "run_experiment", spying_run)
    grid = [ExperimentConfig(scheme=scheme, **FAST)
            for scheme in ("polaris", "ondemand")]
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "cache")
    results = runner.run(grid)
    assert len(opened) == len(grid)
    assert all(result.faults_injected > 0 for result in results)
    # The plan that was hashed is the plan that ran: with the variable
    # gone, the shipped flags still address each cached entry.
    clean_env.delenv("REPRO_FAULTS")
    for config, flags in zip(grid, shipped):
        assert flags.plan.name == "burst"
        assert runner.cache.get(config_key(config, flags=flags)) is not None
        assert runner.cache.get(config_key(config)) is None


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the seeded invariant reaches workers by fork")
def test_flags_resolved_in_the_parent_reach_a_reused_pool_worker(clean_env):
    """Flipping ``REPRO_SIMSAN`` between two sweeps keeps the pool, and
    its workers --- whose own environment still says off --- run the
    second sweep sanitized because the flags travel with the cells."""
    def tripped(self):
        raise SimulationInvariantError("seeded", "tripped",
                                       pid=os.getpid())

    clean_env.setattr(Simulator, "sanitize_check", tripped)
    grid = [ExperimentConfig(scheme="polaris", slack=slack, **FAST)
            for slack in (10.0, 70.0)]
    par.shutdown_shared_pool()
    try:
        runner = SweepRunner(jobs=2, use_cache=False)
        assert len(runner.run(grid)) == 2  # unsanitized: never checked
        pool = par.shared_pool(2)
        clean_env.setenv("REPRO_SIMSAN", "1")
        with pytest.raises(SimulationInvariantError, match="seeded") as trip:
            runner.run(grid)
        assert trip.value.context["pid"] != os.getpid()
        assert par.shared_pool(2) is pool
        # Only a different worker count rebuilds it.
        assert par.shared_pool(3) is not pool
    finally:
        par.shutdown_shared_pool()
    par.shutdown_shared_pool()  # idempotent


def test_the_three_switches_are_consulted_in_one_harness_function():
    """Under ``repro/harness`` only ``RunFlags.resolve`` calls the
    resolvers that read the three variables, and no code names them."""
    resolvers = {"simsan_enabled", "trace_enabled", "resolve_fault_plan",
                 "resolve_tracer"}
    sites = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, filename):
            self.filename, self.function = filename, None

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id in resolvers:
                sites.add((self.filename, self.function, node.func.id))
            self.generic_visit(node)

        def visit_Constant(self, node):
            assert node.value not in SWITCHES, \
                f"{self.filename} names {node.value} in code"

    root = pathlib.Path(repro.harness.__file__).parent
    for path in sorted(root.glob("*.py")):
        Visitor(path.name).visit(ast.parse(path.read_text()))
    assert sorted(sites) == [
        ("experiment.py", "resolve", "resolve_fault_plan"),
        ("experiment.py", "resolve", "simsan_enabled"),
        ("experiment.py", "resolve", "trace_enabled")]
