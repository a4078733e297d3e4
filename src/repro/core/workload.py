"""Workloads and the workload manager.

A *workload* (paper Section 3) is a named stream of requests sharing a
latency target ``L(c)``.  The paper assumes an external workload
manager (DB2 WLM, Oracle Resource Manager, ...) assigns each incoming
request to a workload; POLARIS is agnostic to the assignment policy.
This module provides the two assignment policies the evaluation uses:

* **per-type** --- one workload per benchmark transaction type, with
  ``L = slack * mean_execution_time(type, f_max)`` (Sections 6.2-6.4);
* **named tiers** --- e.g. gold (7.5 ms) and silver (37.5 ms) workloads
  each containing the full transaction mix (Section 6.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List

if TYPE_CHECKING:  # type-only: keeps core importable without workloads
    from repro.workloads.base import BenchmarkSpec


@dataclass(frozen=True)
class Workload:
    """A request class with a latency target (seconds)."""

    name: str
    latency_target: float

    def __post_init__(self):
        if self.latency_target <= 0:
            raise ValueError(
                f"workload {self.name}: latency target must be positive")


class WorkloadManager:
    """Registry of workloads known to a POLARIS deployment."""

    def __init__(self, workloads: Iterable[Workload] = ()):
        self._workloads: Dict[str, Workload] = {}
        for workload in workloads:
            self.register(workload)

    def register(self, workload: Workload) -> None:
        if workload.name in self._workloads:
            raise ValueError(f"workload {workload.name} already registered")
        self._workloads[workload.name] = workload

    def get(self, name: str) -> Workload:
        return self._workloads[name]

    def __contains__(self, name: str) -> bool:
        return name in self._workloads

    def __len__(self) -> int:
        return len(self._workloads)

    @property
    def workloads(self) -> List[Workload]:
        return [self._workloads[name] for name in sorted(self._workloads)]

    # ------------------------------------------------------------------
    # The evaluation's two assignment policies
    # ------------------------------------------------------------------
    @classmethod
    def per_type_with_slack(cls, spec: BenchmarkSpec,
                            slack: float) -> "WorkloadManager":
        """One workload per transaction type, target = slack x mean time.

        "We define slack as the ratio between a workload's latency
        target and the mean execution time of the workload's
        transactions, at the highest processor frequency."  E.g. at
        slack 50, Order Status (mean 0.25 ms) gets a 12.5 ms target and
        Stock Level (mean 3.4 ms) gets 170 ms (Section 6.2).
        """
        if slack <= 0:
            raise ValueError("slack must be positive")
        manager = cls()
        for txn_type in spec.types:
            manager.register(Workload(
                txn_type.name, slack * txn_type.service.mean_seconds))
        return manager

    @classmethod
    def tiers(cls, targets: Dict[str, float]) -> "WorkloadManager":
        """Named tier workloads with explicit latency targets (seconds).

        The paper's differentiation experiment uses
        ``{"gold": 7.5e-3, "silver": 37.5e-3}`` (Section 6.5).
        """
        return cls(Workload(name, target)
                   for name, target in sorted(targets.items()))
