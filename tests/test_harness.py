"""Experiment harness: configuration, phases, paired comparisons."""

import random

import pytest

from repro.core.estimator import ExecutionTimeEstimator
from repro.cpu.pstates import POLARIS_FREQUENCIES
from repro.harness.experiment import (
    BENCHMARKS, ExperimentConfig, _build_workloads, _train_estimator,
    effective_load_fraction, run_experiment,
)
from repro.harness.schemes import (
    FIGURE_BASELINE_SCHEMES, SCHEMES, VARIANT_SCHEMES, scheme_named,
)

FAST = dict(workers=2, warmup_seconds=0.3, test_seconds=1.0, seed=3)


def test_scheme_registry():
    assert scheme_named("polaris").uses_scheduler
    assert not scheme_named("ondemand").uses_scheduler
    assert scheme_named("static-2.8").initial_freq == 2.8
    with pytest.raises(KeyError):
        scheme_named("nope")
    assert set(FIGURE_BASELINE_SCHEMES) <= set(SCHEMES)
    assert set(VARIANT_SCHEMES) <= set(SCHEMES)


def test_effective_load_interpolation():
    assert effective_load_fraction(0.0) == 0.0
    assert effective_load_fraction(0.3) == pytest.approx(0.27)
    assert effective_load_fraction(0.6) == pytest.approx(0.75)
    assert effective_load_fraction(0.9) == pytest.approx(0.92)
    assert effective_load_fraction(0.45) == pytest.approx((0.27 + 0.75) / 2)
    assert effective_load_fraction(5.0) == pytest.approx(0.97)
    assert effective_load_fraction(-1.0) == 0.0


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_scheme_runs(scheme):
    result = run_experiment(ExperimentConfig(scheme=scheme, slack=40.0,
                                             **FAST))
    assert result.avg_power_watts > 0
    assert 0.0 <= result.failure_rate <= 1.0
    assert result.offered > 0
    assert result.completed + result.rejected == result.offered
    assert result.throughput > 0
    assert result.scheme_label == SCHEMES[scheme].label


def test_paired_arrivals_across_schemes():
    """Same seed -> identical offered load for every scheme, so power
    and failure comparisons are paired, as in the paper's methodology."""
    results = [run_experiment(ExperimentConfig(scheme=s, slack=40.0, **FAST))
               for s in ("static-2.8", "polaris")]
    assert results[0].offered == results[1].offered


def test_different_seeds_differ():
    a = run_experiment(ExperimentConfig(scheme="static-2.8", slack=40.0,
                                        workers=2, warmup_seconds=0.3,
                                        test_seconds=1.0, seed=1))
    b = run_experiment(ExperimentConfig(scheme="static-2.8", slack=40.0,
                                        workers=2, warmup_seconds=0.3,
                                        test_seconds=1.0, seed=2))
    assert a.offered != b.offered or a.avg_power_watts != b.avg_power_watts


def test_run_is_deterministic():
    config = ExperimentConfig(scheme="polaris", slack=40.0, **FAST)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.avg_power_watts == b.avg_power_watts
    assert a.failure_rate == b.failure_rate
    assert a.offered == b.offered


def test_tier_policy_records_per_workload():
    config = ExperimentConfig(
        scheme="polaris", workload_policy="tiers",
        tier_targets={"gold": 7.5e-3, "silver": 37.5e-3}, **FAST)
    result = run_experiment(config)
    assert set(result.per_workload_failure) == {"gold", "silver"}
    offered = result.per_workload_offered
    total = offered["gold"] + offered["silver"]
    assert abs(offered["gold"] - total / 2) < 0.2 * total


def test_tier_policy_requires_targets():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(workload_policy="tiers", **FAST))


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(workload_policy="bogus", **FAST))


def test_load_trace_drives_rates():
    trace = [0.0] * 2 + [1.0] * 2
    config = ExperimentConfig(scheme="static-2.8", slack=40.0,
                              load_trace=trace, workers=2,
                              warmup_seconds=0.5, seed=3,
                              timeline_bin_seconds=1.0)
    result = run_experiment(config)
    # Test window = trace duration (4 s); the timeline shows the ramp.
    assert len(result.power_timeline) == 4
    first, last = result.power_timeline[0][1], result.power_timeline[-1][1]
    assert last > first
    assert result.load_timeline == trace


def test_training_phase_fills_estimator_windows():
    """Phase 2 (Section 6.1): every (workload, frequency) window is
    full before the test phase, so POLARIS never starts cold."""
    config = ExperimentConfig(scheme="polaris", estimator_window=50, **FAST)
    spec = BENCHMARKS[config.benchmark]()
    manager = _build_workloads(config, spec)
    estimator = ExecutionTimeEstimator(config.estimator_window,
                                       config.estimator_percentile)
    _train_estimator(estimator, manager, spec, POLARIS_FREQUENCIES, config,
                     random.Random(1))
    assert estimator.pairs() == sorted(
        (workload.name, freq) for workload in manager.workloads
        for freq in POLARIS_FREQUENCIES)
    assert all(estimator.observation_count(name, freq) == 50
               for name, freq in estimator.pairs())
    # Slower clocks take longer: the trained ladder falls with frequency.
    for workload in manager.workloads:
        estimates = [estimator.estimate(workload.name, freq)
                     for freq in POLARIS_FREQUENCIES]
        assert estimates == sorted(estimates, reverse=True)


def test_high_slack_reduces_failures():
    tight = run_experiment(ExperimentConfig(scheme="polaris", slack=10.0,
                                            **FAST))
    loose = run_experiment(ExperimentConfig(scheme="polaris", slack=100.0,
                                            **FAST))
    assert loose.failure_rate <= tight.failure_rate


def test_result_summary_and_residency():
    result = run_experiment(ExperimentConfig(scheme="polaris", slack=40.0,
                                             **FAST))
    text = result.summary()
    assert "POLARIS" in text and "W" in text
    assert result.freq_residency
    assert all(freq in (1.2, 1.6, 2.0, 2.4, 2.8)
               for freq in result.freq_residency)
    total_time = sum(result.freq_residency.values())
    assert total_time > 0


def test_tpce_benchmark_runs():
    result = run_experiment(ExperimentConfig(benchmark="tpce",
                                             scheme="polaris", slack=40.0,
                                             **FAST))
    assert len(result.per_workload_failure) == 10
