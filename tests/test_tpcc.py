"""TPC-C spec: the Figure 3 calibration."""

import pytest

from repro.workloads import tpcc


def test_make_spec_matches_figure3():
    spec = tpcc.make_spec()
    assert {t.name for t in spec.types} == set(tpcc.FIGURE3_CALIBRATION)
    assert spec.mix_fraction("NewOrder") == pytest.approx(0.45)
    assert spec.mix_fraction("Payment") == pytest.approx(0.47)
    new_order = spec.type_named("NewOrder")
    assert new_order.service.mean_seconds == pytest.approx(2059e-6)
    assert new_order.service.p95_seconds == pytest.approx(5414e-6)
    # One shared spec; the legacy keyword changes nothing.
    assert tpcc.make_spec(include_bodies=False) is spec
