"""Power model and calibration curves."""

import pytest

from repro.cpu import calibration
from repro.cpu.power import CorePowerModel, ServerPowerModel
from repro.cpu.pstates import XEON_E5_2640V3_PSTATES


def test_active_power_monotone_in_frequency():
    prev = 0.0
    for freq in XEON_E5_2640V3_PSTATES.frequencies:
        watts = calibration.active_watts(freq)
        assert watts > prev
        prev = watts


def test_turbo_step_is_disproportionate():
    """The 2.6 -> 2.8 GHz step costs more than any 0.1 GHz step below it
    (the turbo-voltage cliff the paper's 2.8-vs-2.4 W gap reflects)."""
    freqs = XEON_E5_2640V3_PSTATES.frequencies
    steps = [calibration.active_watts(b) - calibration.active_watts(a)
             for a, b in zip(freqs, freqs[1:])]
    assert steps[-1] == max(steps)


def test_idle_below_active_everywhere():
    model = CorePowerModel()
    freqs = XEON_E5_2640V3_PSTATES.frequencies
    for freq in freqs:
        assert model.idle_power(freq) < model.active_power(freq)
    active = [model.active_power(freq) for freq in freqs]
    assert active == sorted(active)


def test_idle_grows_with_frequency():
    """High-frequency idling must stay expensive, else the paper's
    low-load gap between fixed-2.8 GHz and POLARIS disappears."""
    assert calibration.idle_watts(2.8) > 2 * calibration.idle_watts(1.2)


def test_power_model_caches_and_dispatch():
    calls = []

    def active(freq):
        calls.append(freq)
        return 5.0

    model = CorePowerModel(active_fn=active, idle_fn=lambda f: 1.0)
    assert model.power(2.0, busy=True) == 5.0
    assert model.power(2.0, busy=True) == 5.0
    assert calls == [2.0]  # second call served from cache
    assert model.power(2.0, busy=False) == 1.0


def test_server_power_static_floor():
    model = ServerPowerModel(static_watts=100.0)

    class FakeCore:
        def current_power(self):
            return 3.0

        def energy_at(self, now):
            return 3.0 * now

    cores = [FakeCore() for _ in range(4)]
    assert model.wall_power(cores) == pytest.approx(112.0)
    assert model.wall_energy(cores, 10.0) == pytest.approx(1000.0 + 120.0)


def test_server_power_rejects_negative_floor():
    with pytest.raises(ValueError):
        ServerPowerModel(static_watts=-1.0)


def test_calibrated_16core_medium_load_level():
    """Back-of-envelope: 16 cores at 2.8 GHz and 75% busy should land
    near the paper's ~170 W medium-load wall power."""
    active = calibration.active_watts(2.8)
    idle = calibration.idle_watts(2.8)
    watts = calibration.STATIC_WATTS + 16 * (0.75 * active + 0.25 * idle)
    assert 160.0 < watts < 180.0
