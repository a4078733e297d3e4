"""C-state ladder: residency split, idle energy, wake latency."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu.cstates import C1_ONLY, CState, CStateModel, DEEP_LADDER


def test_default_ladder_is_c1_only():
    model = CStateModel()
    segments = model.segments(1.0)
    assert len(segments) == 1
    assert segments[0][0].name == "C1"
    assert segments[0][1] == 1.0
    assert model.wake_latency(1.0) == 0.0


def test_c1_energy_is_linear():
    model = CStateModel()
    assert model.idle_energy(2.0, 0.5) == pytest.approx(1.0)


def test_deep_ladder_residency_split():
    model = CStateModel(DEEP_LADDER)
    segments = model.segments(1e-3)
    names = [s.name for s, _ in segments]
    assert names == ["C1", "C3", "C6"]
    assert segments[0][1] == pytest.approx(50e-6)
    assert segments[1][1] == pytest.approx(500e-6)
    assert segments[2][1] == pytest.approx(1e-3 - 550e-6)


def test_deep_ladder_short_idle_stays_shallow():
    model = CStateModel(DEEP_LADDER)
    segments = model.segments(30e-6)
    assert [s.name for s, _ in segments] == ["C1"]
    assert model.wake_latency(30e-6) == pytest.approx(2e-6)


def test_deep_ladder_wake_latency_from_deepest():
    model = CStateModel(DEEP_LADDER)
    assert model.wake_latency(10e-3) == pytest.approx(133e-6)


def test_deep_idle_saves_energy():
    shallow = CStateModel(C1_ONLY)
    deep = CStateModel(DEEP_LADDER)
    duration = 10e-3
    assert deep.idle_energy(2.0, duration) < shallow.idle_energy(2.0, duration)


def test_zero_duration():
    model = CStateModel(DEEP_LADDER)
    assert model.segments(0.0) == []
    assert model.idle_energy(2.0, 0.0) == 0.0
    assert model.wake_latency(0.0) == 0.0


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        CStateModel().segments(-1.0)


def test_empty_ladder_rejected():
    with pytest.raises(ValueError):
        CStateModel(())


def test_nonpositive_threshold_rejected():
    bad = (CState("C1", 1.0, 0.0, 0.0), CState("C6", 0.1, float("inf"), 1e-4))
    with pytest.raises(ValueError):
        CStateModel(bad)


@given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_property_energy_bounded_by_c1(duration):
    """Deeper states only shed power: energy <= C1-rate * duration and
    residencies sum to the full interval."""
    model = CStateModel(DEEP_LADDER)
    c1_watts = 2.0
    energy = model.idle_energy(c1_watts, duration)
    assert energy <= c1_watts * duration + 1e-12
    assert energy >= 0.0
    total = sum(res for _, res in model.segments(duration))
    assert total == pytest.approx(duration)
