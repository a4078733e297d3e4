"""Benchmark workloads: TPC-C, TPC-E, arrivals, and load traces.

Each benchmark supplies, per transaction type:

* a **functional implementation** that really executes against the
  in-memory storage engine (used by tests/examples to check integrity);
* a **service-time model** calibrated to the execution-time table the
  paper reports (Figure 3): a lognormal (or lognormal+spike) draw of
  *work* in giga-cycles, so simulated duration scales as ``work / f``
  with core frequency exactly like the paper's measurements do;
* its share of the benchmark **mix**.

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
