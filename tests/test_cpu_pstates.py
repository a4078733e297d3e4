"""P-state tables: construction, navigation, the paper's grids."""

import pytest

from repro.cpu.pstates import (
    POLARIS_FREQUENCIES, PState, PStateTable, XEON_E5_2640V3_PSTATES,
)


def test_paper_grid_shape():
    # "15 frequency levels from 1.2 GHz to 2.6 GHz with 0.1 GHz steps,
    # plus 2.8 GHz" (Section 6.1).
    freqs = XEON_E5_2640V3_PSTATES.frequencies
    assert len(freqs) == 16
    assert freqs[0] == 1.2
    assert freqs[-2] == 2.6
    assert freqs[-1] == 2.8
    assert XEON_E5_2640V3_PSTATES.min_freq == 1.2
    assert XEON_E5_2640V3_PSTATES.max_freq == 2.8


def test_polaris_subset():
    table = XEON_E5_2640V3_PSTATES.subset(POLARIS_FREQUENCIES)
    assert table.frequencies == (1.2, 1.6, 2.0, 2.4, 2.8)


def test_subset_requires_member_frequencies(full_grid):
    with pytest.raises(ValueError):
        full_grid.subset([1.25])


def test_voltage_increases_with_frequency(full_grid):
    voltages = [s.voltage for s in full_grid]
    assert voltages == sorted(voltages)


def test_nearest_at_least(full_grid):
    assert full_grid.nearest_at_least(1.25) == 1.3
    assert full_grid.nearest_at_least(1.3) == 1.3
    assert full_grid.nearest_at_least(2.65) == 2.8
    assert full_grid.nearest_at_least(0.1) == 1.2
    assert full_grid.nearest_at_least(99.0) == 2.8


def test_step_up_down(polaris_grid):
    assert polaris_grid.step_down(2.8) == 2.4
    assert polaris_grid.step_down(1.2) == 1.2
    assert polaris_grid.step_down(2.8, steps=10) == 1.2


def test_step_requires_grid_frequency(polaris_grid):
    with pytest.raises(KeyError):
        polaris_grid.step_down(1.3)


def test_contains_and_len(polaris_grid):
    assert 1.6 in polaris_grid
    assert 1.7 not in polaris_grid
    assert len(polaris_grid) == 5


def test_empty_table_rejected():
    with pytest.raises(ValueError):
        PStateTable([])


def test_duplicate_frequencies_rejected():
    with pytest.raises(ValueError):
        PStateTable([PState(1.0, 0.8), PState(1.0, 0.9)])


def test_pstate_validation():
    with pytest.raises(ValueError):
        PState(-1.0, 0.8)
    with pytest.raises(ValueError):
        PState(1.0, 0.0)


def test_from_frequencies_sorted_regardless_of_input():
    table = PStateTable.from_frequencies([2.0, 1.2, 1.6])
    assert table.frequencies == (1.2, 1.6, 2.0)
