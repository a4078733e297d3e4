"""TPC-C workload: the Figure 3 calibration and its spec.

The paper uses Shore-Kits' TPC-C implementation with the four
transaction types and mix shown in its Figure 3:

=============  ======  ===============  ==============
Type           Mix     Mean @2.8 GHz    P95 @2.8 GHz
=============  ======  ===============  ==============
New Order      45%     2059 us          5414 us
Payment        47%     301 us           859 us
Order Status   4%      250 us           1682 us
Stock Level    4%      3435 us          5106 us
=============  ======  ===============  ==============

Those numbers calibrate the service-time models, which are all POLARIS
sees of a transaction: its type, its deadline and how long it ran.
"""

from __future__ import annotations

from repro.workloads.base import BenchmarkSpec, ServiceTimeModel, TransactionType

#: Figure 3 calibration: name -> (mix %, mean seconds, p95 seconds) at 2.8 GHz.
FIGURE3_CALIBRATION = {
    "NewOrder":    (45.0, 2059e-6, 5414e-6),
    "Payment":     (47.0, 301e-6, 859e-6),
    "OrderStatus": (4.0, 250e-6, 1682e-6),
    "StockLevel":  (4.0, 3435e-6, 5106e-6),
}

#: Figure 3 also reports the 1.2 GHz column; kept for the fig3 bench.
FIGURE3_AT_1200MHZ = {
    "NewOrder":    (4772e-6, 12048e-6),
    "Payment":     (733e-6, 2388e-6),
    "OrderStatus": (809e-6, 3453e-6),
    "StockLevel":  (8062e-6, 11495e-6),
}

#: The spec is immutable and stateless, so every caller shares one.
_SPEC = BenchmarkSpec("tpcc", [
    TransactionType(name, weight, ServiceTimeModel(mean_s, p95_s))
    for name, (weight, mean_s, p95_s) in FIGURE3_CALIBRATION.items()])


def make_spec(include_bodies: bool = True) -> BenchmarkSpec:
    """The TPC-C benchmark spec calibrated to the paper's Figure 3.

    ``include_bodies`` is inert; it stays only because ``bench/micro.py``
    still passes it."""
    return _SPEC
