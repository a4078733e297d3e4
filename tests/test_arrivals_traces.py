"""Open-loop arrivals and load traces."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.workloads import arrivals
from repro.workloads.arrivals import OpenLoopGenerator, RateSchedule
from repro.workloads.traces import (
    load_trace, normalize, synthesize_diurnal_trace,
    synthesize_worldcup_trace,
)


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------
def test_constant_rate_mean_interarrival():
    sim = Simulator()
    times = []
    generator = OpenLoopGenerator.constant(sim, 1000.0, times.append,
                                           random.Random(0))
    generator.start()
    sim.run(until=20.0)
    rate = len(times) / 20.0
    assert rate == pytest.approx(1000.0, rel=0.05)


def test_interarrival_bounded_by_twice_mean():
    """Paper Section 6.1: uniform on [0, 2/rate]."""
    sim = Simulator()
    times = []
    generator = OpenLoopGenerator.constant(sim, 100.0, times.append,
                                           random.Random(1))
    generator.start()
    sim.run(until=50.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert max(gaps) <= 2.0 / 100.0 + 1e-12
    assert min(gaps) >= 0.0
    # Uniform: variance of gaps ~ (2/rate)^2 / 12.
    mean_gap = sum(gaps) / len(gaps)
    var = sum((g - mean_gap) ** 2 for g in gaps) / len(gaps)
    assert var == pytest.approx((0.02 ** 2) / 12.0, rel=0.15)


def test_stop_halts_generation():
    sim = Simulator()
    times = []
    generator = OpenLoopGenerator.constant(sim, 100.0, times.append,
                                           random.Random(2))
    generator.start()
    sim.run(until=1.0)
    count = len(times)
    generator.stop()
    sim.run(until=5.0)
    assert len(times) == count


def test_double_start_rejected():
    sim = Simulator()
    generator = OpenLoopGenerator.constant(sim, 1.0, lambda t: None,
                                           random.Random(0))
    generator.start()
    with pytest.raises(RuntimeError):
        generator.start()


def test_rate_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        OpenLoopGenerator.constant(sim, 0.0, lambda t: None,
                                   random.Random(0))


def test_scheduled_rate_changes_take_effect():
    sim = Simulator()
    times = []
    schedule = RateSchedule([100.0, 100.0, 2000.0, 2000.0])
    generator = OpenLoopGenerator(sim, schedule.rate_at, times.append,
                                  random.Random(3))
    generator.start()
    sim.run(until=4.0)
    early = sum(1 for t in times if t < 2.0)
    late = sum(1 for t in times if t >= 2.0)
    assert late > 5 * early


def test_zero_rate_stretch_survives():
    sim = Simulator()
    times = []
    schedule = RateSchedule([0.0, 0.0, 500.0])
    generator = OpenLoopGenerator(sim, schedule.rate_at, times.append,
                                  random.Random(4))
    generator.start()
    sim.run(until=3.0)
    assert all(t >= 2.0 for t in times)
    assert len(times) > 100


def test_rate_schedule_lookup(monkeypatch):
    monkeypatch.setattr(arrivals, "STEP_SECONDS", 2.0)
    schedule = RateSchedule([10.0, 20.0])
    assert schedule.rate_at(0.0) == 10.0
    assert schedule.rate_at(1.99) == 10.0
    assert schedule.rate_at(2.0) == 20.0
    assert schedule.rate_at(100.0) == 20.0  # persists past the end
    assert schedule.duration == 4.0


def test_rate_schedule_validation():
    with pytest.raises(ValueError):
        RateSchedule([])
    with pytest.raises(ValueError):
        RateSchedule([-1.0])


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def test_worldcup_trace_shape():
    trace = synthesize_worldcup_trace(300, random.Random(0))
    assert len(trace) == 300
    assert all(0.0 <= v <= 1.0 for v in trace)
    # Meaningful dynamic range, like the paper's normalized plot.
    assert max(trace) - min(trace) > 0.5


def test_worldcup_trace_deterministic_by_seed():
    a = synthesize_worldcup_trace(100, random.Random(7))
    b = synthesize_worldcup_trace(100, random.Random(7))
    c = synthesize_worldcup_trace(100, random.Random(8))
    assert a == b
    assert a != c


def test_worldcup_trace_validation():
    with pytest.raises(ValueError):
        synthesize_worldcup_trace(0, random.Random(0))


def test_normalize():
    assert normalize([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]
    assert normalize([5.0, 5.0]) == [0.5, 0.5]


def test_load_trace_parses_and_normalizes():
    lines = ["# world cup counts", "100", "", "300", "200"]
    assert load_trace(lines) == [0.0, 1.0, 0.5]


def test_load_trace_empty_rejected():
    with pytest.raises(ValueError):
        load_trace(["# only a comment"])


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "-3", "1 2"])
def test_load_trace_rejects_bad_line_by_number(bad):
    lines = ["# world cup counts", "100", "", bad, "200"]
    with pytest.raises(ValueError, match="trace line 4"):
        load_trace(lines)


# ----------------------------------------------------------------------
# Diurnal trace (fleet experiments)
# ----------------------------------------------------------------------
def test_diurnal_trace_shape():
    trace = synthesize_diurnal_trace(600, random.Random(0))
    assert len(trace) == 600
    assert all(v > 0.0 for v in trace)
    # Unscaled rates peak near 1.0 (requests/s) over the evening swell.
    assert 0.6 <= max(trace) <= 1.5
    # Day-shaped dynamic range: troughs well below the peak.
    assert min(trace) < 0.25 * max(trace)


def test_diurnal_trace_deterministic_by_seed():
    a = synthesize_diurnal_trace(120, random.Random(7))
    b = synthesize_diurnal_trace(120, random.Random(7))
    c = synthesize_diurnal_trace(120, random.Random(8))
    assert a == b
    assert a != c


def test_diurnal_peak_rate_scale_is_exact():
    """Scaling multiplies every per-second rate, nothing else."""
    base = synthesize_diurnal_trace(200, random.Random(3))
    scaled = synthesize_diurnal_trace(200, random.Random(3),
                                      peak_rate_scale=1000.0)
    assert scaled == pytest.approx([v * 1000.0 for v in base])


def test_diurnal_normalized_shape_invariant_under_scaling():
    """The property the fleet figure depends on: the normalized load
    shape fed to the harness does not depend on the absolute scale
    (all RNG draws happen before the scale factor is applied)."""
    for scale in (7.0, 1000.0, 1e6):
        a = normalize(synthesize_diurnal_trace(150, random.Random(5)))
        b = normalize(synthesize_diurnal_trace(
            150, random.Random(5), peak_rate_scale=scale))
        assert b == pytest.approx(a, abs=1e-9)


def test_diurnal_trace_validation():
    with pytest.raises(ValueError):
        synthesize_diurnal_trace(0, random.Random(0))
    with pytest.raises(ValueError):
        synthesize_diurnal_trace(100, random.Random(0), peak_rate_scale=0.0)
    with pytest.raises(ValueError):
        synthesize_diurnal_trace(100, random.Random(0),
                                 peak_rate_scale=-2.0)
