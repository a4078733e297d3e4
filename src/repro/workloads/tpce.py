"""TPC-E-style workload: the calibration of ten request types and its spec.

The paper's TPC-E experiment (Section 6.2.1) defines ten POLARIS
workloads, one per TPC-E request type, with mean execution times
ranging from 0.06 to 2.3 milliseconds at peak frequency.  This module
calibrates the ten canonical request types so the mix's execution-time
range matches the paper's 0.06--2.3 ms span and each type's tail ratio
is in the 2.5--3.5x band observed for TPC-C.

Mix weights follow the TPC-E specification's transaction mix.
"""

from __future__ import annotations

from repro.workloads.base import BenchmarkSpec, ServiceTimeModel, TransactionType

#: name -> (mix %, mean seconds, p95 seconds) at the 2.8 GHz reference.
#: Mix percentages are the TPC-E spec mix; means span the paper's
#: 0.06-2.3 ms range (Section 6.2.1).
CALIBRATION = {
    "TradeStatus":      (19.0, 60e-6, 170e-6),
    "MarketWatch":      (18.0, 180e-6, 500e-6),
    "SecurityDetail":   (14.0, 150e-6, 420e-6),
    "CustomerPosition": (13.0, 250e-6, 700e-6),
    "TradeOrder":       (10.1, 700e-6, 1960e-6),
    "TradeResult":      (10.0, 1500e-6, 4200e-6),
    "TradeLookup":      (8.0, 1100e-6, 3080e-6),
    "BrokerVolume":     (4.9, 900e-6, 2520e-6),
    "TradeUpdate":      (2.0, 2300e-6, 6440e-6),
    "MarketFeed":       (1.0, 800e-6, 2240e-6),
}

#: The spec is immutable and stateless, so every caller shares one.
_SPEC = BenchmarkSpec("tpce", [
    TransactionType(name, weight, ServiceTimeModel(mean_s, p95_s))
    for name, (weight, mean_s, p95_s) in CALIBRATION.items()])


def make_spec() -> BenchmarkSpec:
    """The TPC-E-style benchmark spec (ten types, paper Section 6.2.1)."""
    return _SPEC
