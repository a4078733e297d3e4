"""Service-time models and benchmark specs."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.base import (
    BenchmarkSpec, MAX_LOGNORMAL_RATIO, ServiceTimeModel, TransactionType,
    fit_lognormal,
)


def test_fit_lognormal_moments():
    mu, sigma = fit_lognormal(1.0, 2.0)
    assert math.exp(mu + sigma ** 2 / 2) == pytest.approx(1.0)
    assert math.exp(mu + 1.6448536269514722 * sigma) == pytest.approx(2.0)


def test_fit_lognormal_rejects_extreme_ratio():
    with pytest.raises(ValueError):
        fit_lognormal(1.0, 5.0)  # > MAX_LOGNORMAL_RATIO ~ 3.87


def test_fit_lognormal_validation():
    with pytest.raises(ValueError):
        fit_lognormal(0.0, 1.0)
    with pytest.raises(ValueError):
        fit_lognormal(2.0, 1.0)  # p95 below mean


@settings(max_examples=50, deadline=None)
@given(mean=st.floats(min_value=1e-5, max_value=1.0),
       ratio=st.floats(min_value=1.01, max_value=3.5))
def test_property_fit_lognormal_roundtrip(mean, ratio):
    mu, sigma = fit_lognormal(mean, mean * ratio)
    assert math.exp(mu + sigma ** 2 / 2) == pytest.approx(mean, rel=1e-9)
    assert sigma >= 0


def test_service_model_sample_statistics():
    """Sampled mean and P95 must match the calibration targets."""
    model = ServiceTimeModel(2059e-6, 5414e-6)
    rng = random.Random(0)
    samples = sorted(model.draw_seconds(rng) for _ in range(40000))
    mean = sum(samples) / len(samples)
    p95 = samples[int(0.95 * len(samples))]
    assert mean == pytest.approx(2059e-6, rel=0.05)
    assert p95 == pytest.approx(5414e-6, rel=0.05)


def test_spike_model_for_heavy_tail():
    """Order Status (P95 = 6.7x mean) needs the two-component model."""
    model = ServiceTimeModel(250e-6, 1682e-6)
    rng = random.Random(1)
    samples = sorted(model.draw_seconds(rng) for _ in range(40000))
    mean = sum(samples) / len(samples)
    p95 = samples[int(0.95 * len(samples))]
    assert mean == pytest.approx(250e-6, rel=0.08)
    assert p95 == pytest.approx(1682e-6, rel=0.15)


def test_infeasible_spike_model_rejected():
    # Spike mean exceeding what q=8% can absorb: body mean would be <= 0.
    with pytest.raises(ValueError):
        ServiceTimeModel(1e-6, 1.0)


def test_work_scales_with_reference_frequency():
    model = ServiceTimeModel(1e-3, 2e-3)
    rng_a, rng_b = random.Random(5), random.Random(5)
    seconds = model.draw_seconds(rng_a)
    work = model.draw_work(rng_b)
    assert work == pytest.approx(seconds * 2.8)


def test_service_model_validation():
    with pytest.raises(ValueError):
        ServiceTimeModel(0.0, 1.0)
    with pytest.raises(ValueError):
        ServiceTimeModel(2.0, 1.0)


def test_transaction_type_validation():
    with pytest.raises(ValueError):
        TransactionType("t", -1.0, ServiceTimeModel(1e-3, 2e-3))


def test_spec_mix_sampling_proportions():
    spec = BenchmarkSpec("b", [
        TransactionType("a", 70, ServiceTimeModel(1e-3, 2e-3)),
        TransactionType("b", 30, ServiceTimeModel(1e-3, 2e-3)),
    ])
    rng = random.Random(2)
    draws = [spec.choose_type(rng).name for _ in range(20000)]
    fraction_a = draws.count("a") / len(draws)
    assert fraction_a == pytest.approx(0.70, abs=0.02)
    assert spec.mix_fraction("a") == pytest.approx(0.7)


def test_spec_combined_mean_and_peak():
    spec = BenchmarkSpec("b", [
        TransactionType("fast", 0.5, ServiceTimeModel(1e-3, 2e-3)),
        TransactionType("slow", 0.5, ServiceTimeModel(3e-3, 6e-3)),
    ])
    assert spec.combined_mean_seconds() == pytest.approx(2e-3)
    assert spec.peak_throughput(workers=4) == pytest.approx(2000.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchmarkSpec("b", [])
    with pytest.raises(ValueError):
        BenchmarkSpec("b", [
            TransactionType("a", 0.0, ServiceTimeModel(1e-3, 2e-3))])


def test_spec_type_lookup():
    spec = BenchmarkSpec("b", [
        TransactionType("a", 1.0, ServiceTimeModel(1e-3, 2e-3))])
    assert spec.type_named("a").name == "a"
    with pytest.raises(KeyError):
        spec.type_named("zzz")


def test_max_lognormal_ratio_constant():
    assert MAX_LOGNORMAL_RATIO == pytest.approx(
        math.exp(1.6448536269514722 ** 2 / 2))
