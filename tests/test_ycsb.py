"""YCSB-style key-value workload: core mixes and a harness cell."""

import pytest

from repro.workloads import ycsb


def test_make_spec_mixes():
    spec_a = ycsb.make_spec("a")
    assert {t.name for t in spec_a.types} == {"Read", "Update"}
    assert spec_a.mix_fraction("Read") == pytest.approx(0.5)
    spec_c = ycsb.make_spec("C")  # case-insensitive
    assert [t.name for t in spec_c.types] == ["Read"]
    assert ycsb.make_spec("c") is spec_c
    spec_e = ycsb.make_spec("e")
    assert {t.name for t in spec_e.types} == {"Scan", "Insert"}
    with pytest.raises(ValueError):
        ycsb.make_spec("z")


def test_harness_integration():
    from repro.harness import ExperimentConfig, run_experiment
    result = run_experiment(ExperimentConfig(
        benchmark="ycsb-b", scheme="polaris", slack=40.0,
        workers=2, warmup_seconds=0.3, test_seconds=1.0, seed=9))
    assert result.offered > 0
    assert set(result.per_workload_failure) <= {"Read", "Update"}
