"""Shared fixtures for the test suite."""

import random

import pytest

from repro.cpu.pstates import POLARIS_FREQUENCIES, XEON_E5_2640V3_PSTATES
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


@pytest.fixture(autouse=True)
def _hermetic_harness_paths(tmp_path, monkeypatch):
    """Keep the sweep cache out of the repo during tests: it defaults
    to the current directory otherwise."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def streams():
    return RandomStreams(12345)


@pytest.fixture
def full_grid():
    return XEON_E5_2640V3_PSTATES


@pytest.fixture
def polaris_grid():
    return XEON_E5_2640V3_PSTATES.subset(POLARIS_FREQUENCIES)
