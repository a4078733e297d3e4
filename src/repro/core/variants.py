"""POLARIS variants for the component analysis (paper Section 6.6).

The paper isolates the contribution of EDF ordering and of
arrival-triggered frequency adjustment with two ablated schedulers,
which also stand in for related systems:

* **POLARIS-FIFO** (Rubik-like): identical frequency selection, but
  transactions run in FIFO order.  Frequency is still adjusted on both
  arrival and completion.
* **POLARIS-FIFO-NOARRIVE** (LAPS-like): FIFO order *and* frequency
  adjusted only on transaction completion, so a burst of urgent
  arrivals cannot speed up the running transaction.

Both variants use POLARIS's execution-time estimator, as in the paper
("both variants use POLARIS' execution time estimation technique").
"""

from __future__ import annotations

from repro.core.polaris import PolarisScheduler
from repro.db.queues import FifoQueue


class PolarisFifoScheduler(PolarisScheduler):
    """FIFO execution order; frequency adjusted on arrival and completion.

    ``SetProcessorFreq`` walks the queue in FIFO order, so the
    predicted queueing time of each request is the time of everything
    *ahead of it in the queue* --- the correct quantity for FIFO
    dispatch (for EDF the same walk visits earlier-deadline requests,
    recovering the paper's q-hat definition).
    """

    name = "polaris-fifo"
    queue_class = FifoQueue


class PolarisFifoNoArriveScheduler(PolarisFifoScheduler):
    """FIFO order; frequency adjusted on completion only."""

    name = "polaris-fifo-noarrive"
    adjusts_on_arrival = False


class PolarisShedScheduler(PolarisScheduler):
    """POLARIS with admission control (load shedding).

    Section 1 motivates the DBMS's second advantage over the OS: it
    controls its units of work and "can reject low value requests when
    load is high".  This variant rejects, at arrival, any request that
    is provably hopeless: even at the maximum frequency, the predicted
    queueing time behind earlier-deadline work plus its own predicted
    execution time overshoots its deadline.  Rejected requests count as
    missed (they never finish by their deadline), but the worker stops
    burning cycles on transactions that were going to be late anyway,
    which protects the deadlines of the requests behind them.
    """

    name = "polaris-shed"

    def admits(self, now, running, running_elapsed, request) -> bool:
        self._stamp_running(running)
        queueing = 0.0
        if running is not None:
            queueing = max(0.0, running.mu[-1] - running_elapsed)
        for queued in self.queue:
            if queued.deadline <= request.deadline:
                queueing += queued.mu[-1]
        predicted_finish = now + queueing \
            + self.estimator.row(request.workload_name)[-1]
        return predicted_finish <= request.deadline
