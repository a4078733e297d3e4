"""What remains of the in-memory storage engine: the row lock manager.

Nothing in the simulator takes a lock --- POLARIS sees a transaction
only as its workload label, deadline and measured execution time, and
each worker runs a transaction to completion on one core --- so
:mod:`repro.db.storage.locks` is reached by its own tests alone.
"""

from repro.db.storage.locks import LockConflictError, LockManager, LockMode

__all__ = ["LockConflictError", "LockManager", "LockMode"]
