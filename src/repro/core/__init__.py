"""POLARIS: POwer and Latency Aware Request Scheduling.

The paper's primary contribution (Section 3).  POLARIS controls both
transaction execution order (earliest-deadline-first) and per-core
processor frequency.  On every request arrival and completion it runs
``SetProcessorFreq`` (Figure 2): choose the *smallest* frequency such
that the running transaction and every queued transaction are predicted
to finish by their deadlines; if even the highest frequency cannot,
run flat out so late transactions finish as quickly as possible.

Predictions come from a per-(workload, frequency) sliding-window
percentile estimator (Section 3.2): the p-th percentile (default 95) of
the last S (default 1000) measured execution times --- deliberately
conservative, because POLARIS's first objective is meeting latency
targets, not saving power.

Variants from the component analysis (Section 6.6):

* ``PolarisFifoScheduler`` --- FIFO order instead of EDF (Rubik-like);
* ``PolarisFifoNoArriveScheduler`` --- FIFO and frequency adjustment on
  completion only (LAPS-like).

Nothing is re-exported here, so a run loads only the modules it uses:
import from the submodule (``from repro.core.polaris import
PolarisScheduler``).
"""
