"""Property-based guarantees of the fault-injection subsystem.

* Same ``(config, seed, plan)`` -> identical results (chaos is exactly
  as reproducible as health).
* An empty plan is indistinguishable from no plan at all.
* Request accounting balances at end of run, whatever the scenario.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import DegradationPolicy, FaultPlan
from repro.faults.scenarios import scenario_names
from repro.harness.experiment import ExperimentConfig, run_experiment

#: Small-but-real cell: every scenario window (0.5 s) lands inside the
#: test phase, and a run takes a fraction of a second.
_BASE = dict(benchmark="tpcc", scheme="polaris", load_fraction=0.6,
             slack=40.0, workers=2, warmup_seconds=0.3, test_seconds=0.6)


def _metrics(result):
    return (result.avg_power_watts, result.failure_rate, result.offered,
            result.completed, result.missed, result.rejected, result.lost,
            result.faults_injected,
            tuple(sorted(result.degradation_actions.items())),
            result.sim_events, result.cpu_energy_joules,
            tuple(sorted(result.per_workload_failure.items())))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       scenario=st.sampled_from(scenario_names()))
def test_same_seed_and_plan_give_identical_results(seed, scenario):
    config = ExperimentConfig(seed=seed, faults=scenario, **_BASE)
    assert _metrics(run_experiment(config)) \
        == _metrics(run_experiment(config))


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_empty_plan_is_bit_identical_to_no_faults(seed):
    baseline = run_experiment(ExperimentConfig(seed=seed, **_BASE))
    empty = run_experiment(
        ExperimentConfig(seed=seed, faults=FaultPlan(), **_BASE))
    assert _metrics(empty) == _metrics(baseline)
    assert empty.faults_injected == 0
    assert empty.degradation_actions == {}


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       scenario=st.sampled_from(scenario_names()))
def test_accounting_balances_under_chaos(seed, scenario):
    # simsan on: run_experiment audits server.sanitize_accounting() at
    # the end of every faulted run (and the EDF/throttle invariants run
    # throughout); any imbalance raises SimulationInvariantError.
    # (pytest's monkeypatch is function-scoped, which hypothesis
    # forbids, so flip the env var with a context manager instead.)
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv("REPRO_SIMSAN", "1")
        config = ExperimentConfig(seed=seed, faults=scenario, **_BASE)
        result = run_experiment(config)
    # The recorder's in-window books must balance too: every offered
    # request either completed, was rejected/shed, or was lost.
    assert result.offered \
        == result.completed + result.rejected + result.lost


def test_degradation_only_plan_changes_nothing_when_nothing_fails():
    """Armed mechanisms with no faults to react to stay dormant (the
    retry path, watchdog, and panic mode never trigger on their own)."""
    policy = DegradationPolicy(retry=True, watchdog=True, panic=True)
    baseline = run_experiment(ExperimentConfig(seed=11, **_BASE))
    armed = run_experiment(ExperimentConfig(
        seed=11, faults=FaultPlan(degradation=policy), **_BASE))
    assert armed.degradation_actions == {}
    assert armed.faults_injected == 0
    assert (armed.avg_power_watts, armed.failure_rate, armed.offered) \
        == (baseline.avg_power_watts, baseline.failure_rate,
            baseline.offered)
