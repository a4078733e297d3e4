"""Benchmark workloads: TPC-C, TPC-E, YCSB, arrivals, and load traces.

Each benchmark supplies, per transaction type:

* a **service-time model** calibrated to the execution-time table the
  paper reports (Figure 3): a lognormal (or lognormal+spike) draw of
  *work* in giga-cycles, so simulated duration scales as ``work / f``
  with core frequency exactly like the paper's measurements do;
* its share of the benchmark **mix**.

That is all a transaction is here: POLARIS sees its type, its deadline
and its measured execution time (paper Section 4.1), never what it
reads or writes.

Also here: the open-loop request generator with uniform interarrival
times (Section 6.1) and the World Cup-style time-varying load trace
(Section 6.4).
"""

from repro.workloads.base import (
    BenchmarkSpec, ServiceTimeModel, TransactionType, fit_lognormal,
)
from repro.workloads.arrivals import OpenLoopGenerator, RateSchedule
from repro.workloads.traces import synthesize_worldcup_trace
from repro.workloads import tpcc, tpce, ycsb

__all__ = [
    "BenchmarkSpec", "ServiceTimeModel", "TransactionType", "fit_lognormal",
    "OpenLoopGenerator", "RateSchedule", "synthesize_worldcup_trace",
    "tpcc", "tpce", "ycsb",
]
