"""The POLARIS scheduling and frequency-selection algorithm (Figure 2).

One :class:`PolarisScheduler` instance manages one worker/core pair, as
in the prototype architecture (Section 5): request-handler threads run
the arrival path, the worker runs the completion path, and both end by
calling :meth:`select_frequency` --- the paper's ``SetProcessorFreq``.

``SetProcessorFreq`` chooses the smallest frequency at which the
running transaction and all queued transactions are predicted to meet
their deadlines:

1. Find the minimum frequency finishing the *running* transaction
   (predicted remaining time ``mu(c(t0), f) - e0``) by its deadline.
2. Walk the queue in EDF order keeping, per frequency, the cumulative
   predicted queueing time ``q(t, f)`` (remaining running time plus the
   predicted times of all earlier-deadline requests).  Whenever the
   current frequency cannot get a request done by its deadline, advance
   to the lowest higher frequency that can.
3. The moment the highest frequency is required, stop checking and run
   flat out --- late transactions then finish as fast as possible.

**How the walk is computed.**  The literal Figure 2 keeps one running
``q(t, f)`` sum per frequency, O(|Q| * |F|) adds per invocation.  Only
the sum at the *current* candidate frequency is ever compared, and the
candidate never decreases, so this implementation keeps one scalar:
each item costs one add, and an escalation rebuilds the sum at the
higher frequency by replaying the already-walked prefix in walk order
--- the additions the per-frequency form would have made, so the result
is bit-identical.  The top level is never replayed: step 3 exits the
moment it is required, and nothing reads q-hat after that exit.

Most invocations change nothing, so the walk first tries to *confirm*
the last answer ``h``: it starts at level ``max(floor, h - 1)`` instead
of the floor.  If it escalates at least once it has rejoined the
floor-start walk exactly: every earlier item was feasible at ``h - 1``,
which holds that walk at or below ``h - 1`` so far; the failing item is
infeasible at ``h - 1`` and --- estimates non-increasing in frequency,
float ``+`` monotone in each operand --- at every lower level, so both
escalate from that item to the same level with the same replayed fold.
If it never escalates it proved nothing (the answer may lie lower) and
the walk is redone from the floor.  The hint is therefore advice: any
value of it yields the same selection, items scanned and decision
record.  The precondition is that every row is non-increasing *below
the top level* (a hinted start is at most ``last - 1``).  p95s of
separately filled windows need not honour it, so the estimator counts
its table's rising pairs (``ExecutionTimeEstimator.rising``) and the
walk is hinted only while that is zero.  simsan walks every hinted
selection again from the floor (``hint-exact``) and recounts the pairs
(``rows-falling``).

A feasible queue costs |Q| adds; a confirmed answer the walk up to the
item that forces it plus one replay (none at the top); a cold queue
that climbs every level one replay per level below the top.  The
overhead bench times all three against the prototype's ~10 us (§5).

**Where the estimates come from.**  No estimate is computed, looked up
by name or validated inside the walk.  The estimator serves one
ladder and owns one always-current row ``[mu(c, f) for f in freqs]``
per workload (:meth:`~repro.core.estimator.ExecutionTimeEstimator.mu_rows`).
:meth:`PolarisScheduler.enqueue` stamps a reference to it on the
request as ``request.mu``, asking the estimator to build the row the
first time a workload arrives; the walk reads ``request.mu[chosen]``
and a replay reads ``w.mu[j]``.

**Shared frequency domains.**  ``select_frequency`` assumes per-core
DVFS, as the paper does.  On coarse topologies
(:class:`~repro.cpu.topology.SocketTopology` at per-socket
granularity) the selected frequency becomes this core's *vote*: the
worker's PERF_CTL write lands in the core's
:class:`~repro.cpu.topology.FrequencyDomain`, which applies the maximum
of the member votes (the kernel's cpufreq policy-sharing rule) to every
member core.  POLARIS's deadline guarantees survive --- a domain never
runs a core *below* what its scheduler asked for --- but its power
savings erode, since one urgent transaction raises the whole domain;
the harness's granularity figure quantifies exactly that cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis.sanitizer import invariant, simsan_enabled
from repro.core.estimator import ExecutionTimeEstimator
from repro.core.request import Request
from repro.db.queues import EdfQueue, RequestQueue


class PolarisScheduler:
    """POLARIS for one core: EDF queue + SetProcessorFreq.

    Parameters
    ----------
    frequencies:
        The available P-state frequencies in GHz, ascending (the
        paper's five-level set by default at the server layer).
    estimator:
        The shared ``mu(c, f)`` execution-time estimator.  Sharing one
        across all cores pools observations exactly like keeping a
        single workload-level model; per-core estimators also work.
    """

    #: Whether the scheduler wants SetProcessorFreq run on request
    #: arrival (POLARIS and POLARIS-FIFO do; the NOARRIVE variant does
    #: not --- Section 6.6).
    adjusts_on_arrival = True

    #: The queue discipline: EDF for POLARIS proper (simsan checks the
    #: pop order only for it; the FIFO variants declare ``FifoQueue``).
    queue_class: Type[RequestQueue] = EdfQueue

    #: Admission control (Section 1: the DBMS "can reorder requests, or
    #: reject low value requests when load is high").  Base POLARIS
    #: admits everything; see PolarisShedScheduler.
    admits = None

    #: Every selection reads the estimator's rows, so the harness
    #: trains it (phase 2) before the run.
    reads_estimates = True

    name = "polaris"

    def __init__(self, frequencies: Sequence[float],
                 estimator: ExecutionTimeEstimator,
                 sanitize: Optional[bool] = None):
        freqs = tuple(frequencies)
        if not freqs or list(freqs) != sorted(freqs):
            raise ValueError("frequencies must be non-empty and ascending")
        self.frequencies = freqs
        self.estimator = estimator
        self.queue: RequestQueue = self.queue_class()
        # Overhead accounting for the Section 5 measurement.
        self.invocations = 0
        self.queue_items_scanned = 0
        #: simsan: resolved once (arg > REPRO_SIMSAN env); checked per
        #: pop/selection, so the disabled cost is one boolean test.
        self.sanitize = simsan_enabled(sanitize)
        self._freq_set = frozenset(freqs)
        #: The estimator's live ``workload -> estimate row`` table
        #: (shared by every scheduler built on the estimator).
        self._rows: Dict[str, List[float]] = estimator.mu_rows(freqs)
        self._zeros = (0.0,) * len(freqs)
        #: Level of the last selection, where the next walk looks first.
        #: Advice only (any value selects the same): in no result.
        self._hint = 0
        #: repro.obs: the worker flips this on when tracing and reads
        #: :attr:`last_decision` right after each ``select_frequency``
        #: call.  The scheduler stays simulation-agnostic --- it records
        #: *what* it decided and why (floor, slack), never emits events.
        self.trace_decisions = False
        self.last_decision: Optional[dict] = None
        #: repro.faults: while True (set by the resilience controller's
        #: panic mode), SetProcessorFreq short-circuits to the highest
        #: frequency --- surviving cores run flat out until the windowed
        #: deadline-miss rate recovers and the controller clears it.
        self.panic = False

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        """Queue a request (EDF position for POLARIS proper), carrying
        its workload's estimate row."""
        row = self._rows.get(request.workload_name)
        request.mu = row if row is not None \
            else self.estimator.row(request.workload_name)
        self.queue.push(request)

    def next_request(self) -> Optional[Request]:
        """Dequeue the next request to execute (earliest deadline)."""
        request = self.queue.pop()
        if self.sanitize and request is not None \
                and self.queue_class is EdfQueue:
            # EDF pop order: nothing still queued may have an earlier
            # deadline than what we just popped.  (Pop times are NOT
            # globally monotone --- later arrivals can carry earlier
            # deadlines --- so the check is against the queue head.)
            head = self.queue.peek()
            if head is not None:
                invariant(request.deadline <= head.deadline, "edf-order",
                          "queue popped a request with a later deadline "
                          "than one still queued",
                          popped_deadline=request.deadline,
                          queued_deadline=head.deadline,
                          popped_arrival=request.arrival_time)
        return request

    def __len__(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------
    # SetProcessorFreq (Figure 2)
    # ------------------------------------------------------------------
    def select_frequency(self, now: float, running: Optional[Request],
                         running_elapsed: float = 0.0) -> float:
        """Choose the processor frequency for this worker's core.

        ``running`` is the transaction currently executing (``t0``) and
        ``running_elapsed`` its run time so far (``e0``); both may be
        absent when the worker is about to dispatch from an idle state.

        ``running`` reaches this call through this scheduler's
        :meth:`enqueue` or unstamped (``running.mu is None``: it is
        stamped here, with this estimator's row).  A request another
        scheduler has stamped is not re-stamped --- the walk would read
        the other estimator's row (simsan: ``mu-row-fresh``) --- so one
        hand-built request must not be passed to two schedulers.
        """
        self.invocations += 1
        freqs = self.frequencies
        if self.panic:
            # Panic mode (repro.faults): deadline misses are already
            # epidemic, so skip the walk and run flat out.
            if self.trace_decisions:
                self.last_decision = {
                    "selected_ghz": freqs[-1], "floor_ghz": freqs[-1],
                    "queue_len": len(self.queue), "remaining_s": 0.0,
                    "slack_s": None, "early_exit": True, "panic": True,
                }
            return freqs[-1]
        last = len(freqs) - 1
        items, index = self.queue.scan()
        live = items[index:] if index < len(items) else ()
        # _stamp_running, inlined: this runs on every selection.
        if running is not None and running.mu is None:
            running.mu = self.estimator.row(running.workload_name)

        # Lines 2-4: minimum frequency for the running transaction.  Its
        # predicted remaining time max(0, mu0[j] - e0) also seeds q-hat
        # at every frequency j; no running transaction reads as zeros.
        if running is not None:
            mu0 = running.mu
            e0 = running_elapsed
            deadline = running.deadline
            chosen = 0
            while True:
                q = mu0[chosen] - e0
                if not q > 0.0:
                    q = 0.0
                if now + q <= deadline or chosen == last:
                    break
                chosen += 1
        else:
            mu0 = self._zeros
            e0 = 0.0
            chosen = 0
        floor_index = chosen  # the running transaction's frequency floor

        # Lines 5-16, started one level under the last answer when the
        # rows license it (module docstring); a hinted walk that never
        # escalates proved nothing and is redone from the floor.
        start = self._hint - 1
        if not (start > floor_index and not self.estimator.rising):
            start = floor_index
        chosen, scanned, early_exit = self._walk(now, live, mu0, e0, start)
        if chosen == start != floor_index:
            chosen, scanned, early_exit = self._walk(
                now, live, mu0, e0, floor_index)
        self._hint = chosen
        self.queue_items_scanned += scanned
        selected = freqs[chosen]
        if self.sanitize:
            self._sanitize_selected(selected, floor_index, now)
            if start != floor_index:
                literal = self._walk(now, live, mu0, e0, floor_index)
                invariant(literal == (chosen, scanned, early_exit),
                          "hint-exact", "the walk started above the floor "
                          "ended elsewhere than the floor-start walk",
                          level=start, floor_index=floor_index, now=now,
                          hinted=(chosen, scanned, early_exit),
                          literal=literal)
            walked = list(live[:scanned])
            if running is not None:
                walked.append(running)
            self._sanitize_rows(walked, now)
        if self.trace_decisions:
            remaining_s = mu0[chosen] - e0
            self._record_decision(now, running,
                                  remaining_s if remaining_s > 0.0 else 0.0,
                                  selected, freqs[floor_index],
                                  early_exit=early_exit)
        return selected

    def _walk(self, now: float, live: Sequence[Request],
              mu0: Sequence[float], e0: float,
              chosen: int) -> Tuple[int, int, bool]:
        """Figure 2 lines 5-16 from level ``chosen``: the level reached,
        the items scanned, and whether line 14 cut the walk short.
        ``q`` is q-hat at the candidate level, seeded with the running
        transaction's remaining time there; every addition is a left
        fold in walk order at one level (bit-identical to Figure 2)."""
        last = len(mu0) - 1
        q = mu0[chosen] - e0
        if not q > 0.0:
            q = 0.0
        for request in live:
            mu = request.mu
            m = mu[chosen]
            deadline = request.deadline
            if now + q + m > deadline:
                # Find the lowest higher level that is fast enough,
                # replaying the walked prefix at each level tried.
                # Position by identity match (requests are unique): one
                # C scan per escalation beats per-item bookkeeping.
                at = live.index(request)
                walked = live[:at]
                while True:
                    chosen += 1
                    if chosen >= last:
                        # Line 14: no further checking (and no replay:
                        # nothing reads q-hat) once we need the top.
                        return last, at + 1, True
                    q = mu0[chosen] - e0
                    if not q > 0.0:
                        q = 0.0
                    for w in walked:
                        q += w.mu[chosen]
                    m = mu[chosen]
                    if now + q + m <= deadline:
                        break
            q += m
        return chosen, len(live), False

    def _stamp_running(self, running: Optional[Request]) -> None:
        """Give a ``running`` request that never passed :meth:`enqueue`
        its estimate row (queued requests already carry theirs)."""
        if running is not None and running.mu is None:
            running.mu = self.estimator.row(running.workload_name)

    def _record_decision(self, now_s: float, running: Optional[Request],
                         remaining_s: float, selected_ghz: float,
                         floor_ghz: float, early_exit: bool) -> None:
        """Capture why SetProcessorFreq picked ``selected_ghz``.

        ``remaining_s`` is the running transaction's predicted remaining
        time at the selected frequency, so ``slack_s`` is the margin it
        is predicted to finish with --- the quantity that drove the
        decision (Figure 2 lines 2-4).  ``early_exit`` marks the line-14
        shortcut (highest frequency required; queue walk abandoned).
        """
        slack_s = None
        if running is not None:
            slack_s = running.deadline - (now_s + remaining_s)
        self.last_decision = {
            "selected_ghz": selected_ghz,
            "floor_ghz": floor_ghz,
            "queue_len": len(self.queue),
            "remaining_s": remaining_s,
            "slack_s": slack_s,
            "early_exit": early_exit,
        }

    def _sanitize_selected(self, selected: float, floor_index: int,
                           now: float) -> None:
        """simsan: SetProcessorFreq postconditions (Figure 2).

        The selection must (a) come from the configured P-state set ---
        never an interpolated or stale value --- and (b) respect the
        monotone walk: the queue scan only ever *raises* the frequency
        above the running transaction's floor (lines 5-16 contain no
        downward step).
        """
        invariant(selected in self._freq_set, "pstate-membership",
                  "selected frequency is not in the P-state table",
                  selected=selected, table=self.frequencies, now=now)
        invariant(self.frequencies.index(selected) >= floor_index,
                  "freq-monotone",
                  "queue walk lowered the frequency below the running "
                  "transaction's floor",
                  selected=selected, floor_index=floor_index, now=now)

    def _sanitize_rows(self, requests: Iterable[Request],
                       now: float) -> None:
        """simsan: the estimator's ``rising`` count matches its rows,
        every request the walk read carries *the estimator's* row for
        its workload, and that row equals ``estimate(c, f)`` slot for
        slot."""
        rows = self._rows
        counted = self.estimator.rising
        rising = [(c, j) for c, row in rows.items()
                  for j in range(len(row) - 2) if row[j] < row[j + 1]]
        invariant(counted == len(rising), "rows-falling",
                  "the table's rising-pair count (a hinted walk's "
                  "licence) disagrees with its rows (workload, level)",
                  counted=counted, rising=rising, now=now)
        estimate = self.estimator.estimate
        for request in requests:
            c = request.workload_name
            invariant(request.mu is rows.get(c), "mu-row-fresh",
                      "request carries an estimate row that is not this "
                      "estimator's (stamped by another scheduler; "
                      "requests reach `select_frequency` through this "
                      "scheduler's `enqueue` or unstamped)", workload=c,
                      request_id=request.request_id, now=now)
            invariant(request.mu
                      == [estimate(c, f) for f in self.frequencies],
                      "mu-row-fresh",
                      "estimate row differs from estimate(c, f)",
                      workload=c, row=list(request.mu), now=now)

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    #: Whether mixed-frequency runs (transactions whose core frequency
    #: changed mid-execution) update the estimator.  Such measurements
    #: misattribute execution time to the dispatch frequency and, fed
    #: back, bias the low-frequency windows optimistic --- a feedback
    #: loop that erodes the estimator's deliberate conservatism.  The
    #: default records only clean single-frequency runs.
    update_on_mixed_freq = False

    def record_completion(self, request: Request) -> None:
        """Feed a finished request's measured execution time back into
        the estimator, attributed to its dispatch frequency.

        Runs spanning a frequency change are skipped by default (see
        :attr:`update_on_mixed_freq`); short transactions complete
        unbumped often enough to keep every window fresh.
        """
        if request.dispatch_freq is None:
            raise ValueError("request has no dispatch frequency recorded")
        if not request.single_freq and not self.update_on_mixed_freq:
            return
        self.estimator.observe(request.workload.name, request.dispatch_freq,
                               request.execution_time)
