"""Workloads and latency-target policies."""

import pytest

from repro.core.request import Request
from repro.core.workload import Workload, WorkloadManager
from repro.workloads import tpcc


def test_workload_deadline():
    """``d(t) = a(t) + L(c)`` (paper Figure 1)."""
    workload = Workload("w", 0.010)
    assert Request(workload, "t", 2.5, 1e-3).deadline \
        == pytest.approx(2.510)


def test_workload_target_validation():
    for target in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            Workload("w", target)


def test_register_and_lookup():
    manager = WorkloadManager([Workload("a", 1.0)])
    manager.register(Workload("b", 2.0))
    assert manager.get("a").latency_target == 1.0
    assert "b" in manager
    assert "c" not in manager
    assert len(manager) == 2
    assert [w.name for w in manager.workloads] == ["a", "b"]


def test_duplicate_registration_rejected():
    manager = WorkloadManager([Workload("a", 1.0)])
    with pytest.raises(ValueError):
        manager.register(Workload("a", 2.0))


def test_per_type_slack_policy_matches_paper_example():
    """Section 6.2: at slack 50, Order Status (mean ~0.25 ms) gets a
    ~12.5 ms target and Stock Level (mean ~3.4 ms) gets ~170 ms."""
    spec = tpcc.make_spec()
    manager = WorkloadManager.per_type_with_slack(spec, slack=50.0)
    assert manager.get("OrderStatus").latency_target \
        == pytest.approx(50 * 250e-6)
    assert manager.get("StockLevel").latency_target \
        == pytest.approx(50 * 3435e-6)
    assert manager.get("NewOrder").latency_target \
        == pytest.approx(50 * 2059e-6)
    assert len(manager) == 4


def test_slack_must_be_positive():
    spec = tpcc.make_spec()
    with pytest.raises(ValueError):
        WorkloadManager.per_type_with_slack(spec, slack=0.0)


def test_tiers_policy():
    manager = WorkloadManager.tiers({"gold": 7.5e-3, "silver": 37.5e-3})
    assert manager.get("gold").latency_target == pytest.approx(7.5e-3)
    assert manager.get("silver").latency_target == pytest.approx(37.5e-3)


def test_workload_for_type():
    spec = tpcc.make_spec()
    manager = WorkloadManager.per_type_with_slack(spec, slack=10.0)
    assert manager.get("Payment").name == "Payment"
    assert "nope" not in manager
    with pytest.raises(KeyError):
        manager.get("nope")
