"""The simulated multi-worker database server (the Shore-MT stand-in).

The paper prototypes POLARIS inside the Shore-MT storage manager with
the Shore-Kits benchmark drivers (Section 5).  POLARIS sees a
transaction only as its workload label, deadline and measured
execution time (Section 4.1), so this package reproduces the execution
architecture, not the storage manager:

* :mod:`repro.db.server` --- the multi-worker server: request-handler
  threads that route requests round-robin to per-worker queues, workers
  pinned one-to-one onto simulated cores, executing transactions
  non-preemptively from start to finish (the execution architecture of
  VoltDB/Silo-style systems that POLARIS targets, Section 1);
* :mod:`repro.db.queues` --- the worker request queues, in FIFO order
  (Shore-MT's default) or EDF order (as modified for POLARIS).

Nothing is re-exported here, so a run loads only the modules it uses:
import from the submodule (``from repro.db.server import
DatabaseServer``).
"""
