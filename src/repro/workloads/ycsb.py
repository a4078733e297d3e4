"""YCSB-style key-value workload: operation calibration and core mixes.

The paper's conclusion (Section 8) singles out key-value stores as
another natural POLARIS target: short, non-preemptive units of work.
This module calibrates the standard YCSB core workloads A-F as
service-time models, so the harness can drive POLARIS against a
key-value workload exactly as it does TPC-C/TPC-E.

Core workload mixes (Cooper et al., SoCC 2010):

=====  ==========================
 W      Operations
=====  ==========================
 A      50% read / 50% update
 B      95% read / 5% update
 C      100% read
 D      95% read / 5% insert
 E      95% scan / 5% insert
 F      50% read / 50% RMW
=====  ==========================

Which key an operation touches is the fleet router's draw, not this
module's (see ``repro.fleet.experiment``).
"""

from __future__ import annotations

from repro.workloads.base import BenchmarkSpec, ServiceTimeModel, TransactionType

#: Operation service times at the 2.8 GHz reference: (mean s, p95 s).
#: Reads/updates sit at the "0.06 ms" end of the paper's spectrum;
#: scans of ~50 records cost roughly one TPC-C Payment.
OPERATION_CALIBRATION = {
    "Read":   (60e-6, 150e-6),
    "Update": (85e-6, 220e-6),
    "Insert": (95e-6, 250e-6),
    "Scan":   (650e-6, 1700e-6),
    "RMW":    (150e-6, 390e-6),
}

#: workload letter -> {operation: weight percent}.
CORE_WORKLOAD_MIXES = {
    "a": {"Read": 50, "Update": 50},
    "b": {"Read": 95, "Update": 5},
    "c": {"Read": 100},
    "d": {"Read": 95, "Insert": 5},
    "e": {"Scan": 95, "Insert": 5},
    "f": {"Read": 50, "RMW": 50},
}

#: One spec per workload letter; immutable and stateless, so every
#: caller shares one.
_SPECS = {
    letter: BenchmarkSpec(f"ycsb-{letter}", [
        TransactionType(op, float(weight),
                        ServiceTimeModel(*OPERATION_CALIBRATION[op]))
        for op, weight in mix.items()])
    for letter, mix in CORE_WORKLOAD_MIXES.items()}


def make_spec(workload: str = "a") -> BenchmarkSpec:
    """BenchmarkSpec for YCSB core workload ``a``..``f``."""
    spec = _SPECS.get(workload.lower())
    if spec is None:
        raise ValueError(
            f"unknown YCSB workload {workload!r}; "
            f"choose from {sorted(CORE_WORKLOAD_MIXES)}")
    return spec
