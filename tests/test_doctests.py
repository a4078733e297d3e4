"""Docstring examples in the public API must stay executable."""

import doctest

import pytest

import repro.sim.engine
import repro.sim.rng
import repro.workloads.base

MODULES = [
    repro.sim.engine,
    repro.sim.rng,
    repro.workloads.base,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its examples"
    assert results.failed == 0
