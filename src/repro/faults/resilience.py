"""Graceful degradation: what the server does when faults land.

One :class:`ResilienceController` per experiment, armed by the plan's
:class:`~repro.faults.plan.DegradationPolicy`.  Four mechanisms, all on
the virtual clock and each switched on by its own policy field; an
armed mechanism runs at the settings below, the one setting of each
that any scenario uses:

* **DVFS retry** --- a failed (raised or silently-dropped) P-state write
  is retried with deterministic exponential backoff; after the last
  attempt the worker falls back to the next-lower achievable P-state.
  A newer scheduling decision cancels the outstanding retry.
* **Core watchdog** --- a periodic sweep quarantines workers whose core
  has been stalled past a threshold, migrating their queued requests to
  healthy workers (EDF dispatchers re-sort by deadline on arrival).
  The router probes past quarantined workers from then on.
* **Load shedding** --- arrivals routed to a worker whose queue is
  already at the shed depth are rejected through the server's existing
  rejection-listener path (counted as failures, like Section 1's
  "reject low value requests when load is high").
* **Panic mode** --- a sliding window of recent completions tracks the
  deadline-miss rate; crossing the enter threshold pins every healthy
  core to the maximum frequency and flips POLARIS's ``panic`` flag so
  SetProcessorFreq short-circuits to ``fmax``.  Exit is hysteretic.

Every action bumps a named counter in :attr:`ResilienceController.actions`
and emits an ``obs`` trace instant on the ``faults/resilience`` track,
so degraded-mode behavior is auditable in Perfetto.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, Optional

from repro.cpu.msr import IA32_PERF_CTL, InjectedMsrError, encode_perf_ctl
from repro.db.server import drain_worker_queue, redistribute_requests
from repro.faults.plan import DegradationPolicy
from repro.sim.engine import Event

#: DVFS retry: attempts after the failed write; retry ``k`` fires
#: ``RETRY_BACKOFF_S * 2**(k - 1)`` seconds after the failure
#: (sticky-pstate).
RETRY_LIMIT = 3
RETRY_BACKOFF_S = 0.002
#: Watchdog cadence, and the stall after which a core is declared dead
#: (dying-core).
WATCHDOG_INTERVAL_S = 0.025
WATCHDOG_STALL_S = 0.05
#: Shed an arrival routed to a worker whose queue is this deep (burst,
#: dying-core).
SHED_QUEUE_DEPTH = 12
#: Panic mode enters at this deadline-miss rate over the last
#: ``PANIC_WINDOW`` outcomes and exits at ``PANIC_EXIT_MISS_RATE``
#: (dying-core).
PANIC_ENTER_MISS_RATE = 0.2
PANIC_EXIT_MISS_RATE = 0.02
PANIC_WINDOW = 50

#: Deterministic ordering of the action counters.
_ACTIONS = ("msr_retry", "msr_retry_success", "msr_fallback", "msr_giveup",
            "quarantine", "migration", "migrated_requests", "shed",
            "panic_enter", "panic_exit")


class ResilienceController:
    """Arms the degradation mechanisms of one experiment's server."""

    def __init__(self, sim, server, policy: DegradationPolicy):
        self.sim = sim
        self.server = server
        self.policy = policy
        self.actions: Dict[str, int] = {name: 0 for name in _ACTIONS}
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("faults", "resilience")
        self.panic = False
        #: Worker ids declared dead: the server's set, which its router
        #: probes past.
        self.quarantined = server.quarantined
        #: worker_id -> pending retry event (one in flight per worker).
        self._retries: Dict[int, object] = {}
        self._outcomes: Deque[bool] = deque(maxlen=PANIC_WINDOW)

    def _record(self, action: str, name: str, **payload) -> None:
        self.actions[action] += 1
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, name, self.sim.now,
                                **payload)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Install this controller on its server and start the watchdog."""
        self.server.resilience = self
        if self.policy.panic:
            self.server.add_completion_listener(self._on_outcome)
            # Sheds and other rejections are deadline failures by the
            # paper's metric, so they count toward the panic window too;
            # otherwise shedding masks the very overload panic exists to
            # react to (bounded queues -> every completion on time).
            self.server.add_rejection_listener(self._on_rejection)
        if self.policy.watchdog:
            self.sim.schedule(WATCHDOG_INTERVAL_S, self._watchdog_tick)

    # ------------------------------------------------------------------
    # DVFS retry with deterministic backoff
    # ------------------------------------------------------------------
    def on_msr_failure(self, worker, target_ghz: float) -> None:
        """A PERF_CTL write raised or did not take effect; start (or
        restart) the bounded retry cycle for this worker."""
        self.cancel_retry(worker)
        if not self.policy.retry:
            return
        self._schedule_retry(worker, target_ghz, attempt=1)

    def cancel_retry(self, worker) -> None:
        """Drop the outstanding retry (a newer decision supersedes it)."""
        event = self._retries.pop(worker.worker_id, None)
        if event is not None:
            Event.cancel(event)

    def _schedule_retry(self, worker, target_ghz: float,
                        attempt: int) -> None:
        delay_s = RETRY_BACKOFF_S * (2 ** (attempt - 1))
        self._retries[worker.worker_id] = self.sim.schedule(
            delay_s, partial(self._retry, worker, target_ghz, attempt))

    def _retry(self, worker, target_ghz: float, attempt: int) -> None:
        self._retries.pop(worker.worker_id, None)
        self._record("msr_retry", "degrade:retry", worker=worker.worker_id,
                     target_ghz=target_ghz, attempt=attempt)
        if self._try_write(worker, target_ghz):
            self.actions["msr_retry_success"] += 1
            return
        if attempt < RETRY_LIMIT:
            self._schedule_retry(worker, target_ghz, attempt + 1)
            return
        # Retries exhausted: one shot at the nearest lower P-state, then
        # give up and let the core ride its stale frequency.
        fallback_ghz = worker.core.pstates.step_down(target_ghz)
        if abs(fallback_ghz - target_ghz) > 1e-12 \
                and self._try_write(worker, fallback_ghz):
            self._record("msr_fallback", "degrade:retry-fallback",
                         worker=worker.worker_id, target_ghz=target_ghz,
                         fallback_ghz=fallback_ghz)
        else:
            self._record("msr_giveup", "degrade:retry-giveup",
                         worker=worker.worker_id, target_ghz=target_ghz)

    def _try_write(self, worker, freq_ghz: float) -> bool:
        """One write attempt; True iff the core landed on the target
        (modulo throttle clamping --- and, on shared-domain topologies,
        a sibling vote holding the domain higher --- neither of which is
        a write failure)."""
        try:
            worker.msr.write(IA32_PERF_CTL, encode_perf_ctl(freq_ghz))
        except InjectedMsrError:
            return False
        expected = worker.core.projected_frequency(freq_ghz)
        return abs(worker.core.freq - expected) < 1e-12

    # ------------------------------------------------------------------
    # Watchdog + migration
    # ------------------------------------------------------------------
    def _watchdog_tick(self) -> None:
        now_s = self.sim.now
        for worker in self.server.workers:
            core = worker.core
            if not core.stalled or worker.worker_id in self.quarantined:
                continue
            started_s = core.stall_started_s
            if started_s is None \
                    or now_s - started_s < WATCHDOG_STALL_S:
                continue
            self._quarantine(worker)
        self.sim.schedule(WATCHDOG_INTERVAL_S, self._watchdog_tick)

    def _quarantine(self, worker) -> None:
        self.quarantined.add(worker.worker_id)
        self._record("quarantine", "degrade:quarantine",
                     worker=worker.worker_id,
                     queued=worker.queue_length())
        self._migrate(worker)

    def _migrate(self, worker) -> None:
        """Move every queued request off a dead worker, round-robin over
        the healthy ones (their EDF queues re-sort by deadline)."""
        requests = drain_worker_queue(worker)
        if not requests:
            return
        healthy = [w for w in self.server.workers
                   if w.worker_id not in self.quarantined
                   and not w.core.stalled]
        if not healthy:
            # Nowhere to go: put them back so end-of-run accounting can
            # still see (and count) them as lost.
            for request in requests:
                worker.dispatcher.enqueue(request)
            return
        redistribute_requests(requests, healthy)
        self.actions["migration"] += 1
        self.actions["migrated_requests"] += len(requests)
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "degrade:migration",
                                self.sim.now, source=worker.worker_id,
                                moved=len(requests),
                                targets=len(healthy))
        if self.sim.sanitize:
            # No request may be lost or double-counted by a migration.
            self.server.sanitize_accounting()

    # ------------------------------------------------------------------
    # Load shedding
    # ------------------------------------------------------------------
    def maybe_shed(self, worker, request) -> bool:
        """True (and counted/traced) iff ``request`` should be shed at
        admission because ``worker``'s queue is past the shed depth."""
        if not self.policy.shed \
                or worker.queue_length() < SHED_QUEUE_DEPTH:
            return False
        self._record("shed", "degrade:shed", worker=worker.worker_id,
                     queue_depth=worker.queue_length(),
                     txn_type=request.txn_type)
        return True

    # ------------------------------------------------------------------
    # Panic mode (hysteretic fmax pinning)
    # ------------------------------------------------------------------
    def _on_outcome(self, request) -> None:
        self._note_outcome(request.met_deadline)

    def _on_rejection(self, request) -> None:
        self._note_outcome(False)

    def _note_outcome(self, met_deadline: bool) -> None:
        self._outcomes.append(met_deadline)
        if len(self._outcomes) < PANIC_WINDOW:
            return
        misses = sum(1 for met in self._outcomes if not met)
        rate = misses / len(self._outcomes)
        if not self.panic and rate >= PANIC_ENTER_MISS_RATE:
            self._set_panic(True, rate)
        elif self.panic and rate <= PANIC_EXIT_MISS_RATE:
            self._set_panic(False, rate)

    def _set_panic(self, entering: bool, miss_rate: float) -> None:
        self.panic = entering
        action = "panic_enter" if entering else "panic_exit"
        self._record(action, f"degrade:panic:{'enter' if entering else 'exit'}",
                     miss_rate=miss_rate)
        if self.tracer.enabled:
            self.tracer.counter(self.trace_track, "panic_mode",
                                self.sim.now, active=1 if entering else 0)
        for worker in self.server.workers:
            worker.dispatcher.panic = entering
            if entering and worker.worker_id not in self.quarantined \
                    and not worker.core.stalled:
                # Pin survivors to fmax immediately; on exit the next
                # SetProcessorFreq decisions relax frequencies naturally.
                worker.pin_frequency(worker.core.pstates.max_freq)


__all__ = ["ResilienceController"]
