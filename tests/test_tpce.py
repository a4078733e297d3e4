"""TPC-E-style spec: ten request types on the paper's range."""

import pytest

from repro.workloads import tpce


def test_spec_calibration():
    spec = tpce.make_spec()
    assert len(spec.types) == 10
    means = [t.service.mean_seconds for t in spec.types]
    # The paper's 0.06 - 2.3 ms range (Section 6.2.1).
    assert min(means) == pytest.approx(60e-6)
    assert max(means) == pytest.approx(2300e-6)
    total_weight = sum(t.mix_weight for t in spec.types)
    assert total_weight == pytest.approx(100.0)
