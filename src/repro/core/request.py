"""Transaction requests.

A request is one transaction execution order: it arrives tagged with a
workload identifier (paper Section 3), gets a deadline
``d(t) = a(t) + L(c(t))`` from its workload's latency target, and is
executed non-preemptively by one worker.

Ids come from a module counter, not a class attribute bumped per
request: a write to the class dict invalidates CPython's type-version
tag, which deoptimizes every attribute access on every request.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

_request_ids = itertools.count(1)


class RequestState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    #: Turned away by admission control (PolarisShedScheduler).
    REJECTED = "rejected"


class Request:
    """One transaction execution request.

    Attributes
    ----------
    workload:
        The :class:`~repro.core.workload.Workload` this request belongs
        to --- POLARIS keys its estimators and latency targets on this.
    txn_type:
        Benchmark transaction type name (NewOrder, Payment, ...); used
        by the functional execution layer and reporting.  One workload
        may span several types (the gold/silver experiment) or exactly
        one (the per-type default).
    work:
        True work in giga-cycles (drawn from the service model).  The
        scheduler never reads this --- it only sees measured execution
        times --- matching the paper's black-box estimation setting.
    """

    __slots__ = ("request_id", "workload", "workload_name", "txn_type",
                 "arrival_time", "deadline", "work", "state",
                 "dispatch_time", "finish_time", "worker_id",
                 "dispatch_freq", "single_freq", "result", "mu")

    def __init__(self, workload, txn_type: str, arrival_time: float,
                 work: float, deadline: Optional[float] = None):
        self.request_id = next(_request_ids)
        self.workload = workload
        #: ``workload.name`` denormalized: the scheduler's queue walk
        #: reads it once per (queued request x invocation), where the
        #: extra attribute hop is measurable.
        self.workload_name: str = workload.name
        self.txn_type = txn_type
        self.arrival_time = arrival_time
        self.deadline = deadline if deadline is not None \
            else arrival_time + workload.latency_target
        self.work = work
        self.state = RequestState.QUEUED
        self.dispatch_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.worker_id: Optional[int] = None
        self.dispatch_freq: Optional[float] = None
        #: True if the core frequency never changed while this request
        #: ran; only such runs are clean per-frequency measurements.
        self.single_freq: bool = True
        self.result: Any = None
        #: The estimate row ``[mu(c, f) for f in freqs]`` of this
        #: request's workload, stamped by the scheduler that queued it
        #: (see ``PolarisScheduler.enqueue``); None until then.
        self.mu: Optional[list] = None

    # ------------------------------------------------------------------
    @property
    def latency(self) -> float:
        """Response time: finish minus arrival (requires completion)."""
        if self.finish_time is None:
            raise RuntimeError(f"request {self.request_id} not finished")
        return self.finish_time - self.arrival_time

    @property
    def execution_time(self) -> float:
        """Service time: finish minus dispatch (requires completion)."""
        if self.finish_time is None or self.dispatch_time is None:
            raise RuntimeError(f"request {self.request_id} not finished")
        return self.finish_time - self.dispatch_time

    @property
    def met_deadline(self) -> bool:
        """Whether the request finished by its deadline."""
        if self.finish_time is None:
            raise RuntimeError(f"request {self.request_id} not finished")
        return self.finish_time <= self.deadline + 1e-12

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Request {self.request_id} {self.txn_type} "
                f"c={self.workload.name} a={self.arrival_time:.6f} "
                f"d={self.deadline:.6f} {self.state.value}>")
