"""The multi-worker database server (prototype architecture, Section 5).

Reproduces Figure 5 of the paper:

* **Request handler (RH) threads** accept incoming requests and route
  them round-robin to worker queues, "regardless of the request's
  transaction type or workload" (Section 6.1).  On arrival, the RH runs
  the scheduler's SetProcessorFreq for the target worker's core.
* **Workers**, one pinned to each core, execute requests from their
  queue non-preemptively, start to finish.  On completion a worker
  pulls the next request (earliest deadline under POLARIS) and runs
  SetProcessorFreq before executing it.
* Under the **OS-baseline** configurations, workers use Shore-MT's
  default FIFO scheduling and never touch frequencies; an attached
  governor (static or dynamic) controls each core instead.

Frequency changes go through each core's MSR file, as the prototype's
direct-MSR path does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.analysis.sanitizer import invariant
from repro.core.request import Request
from repro.cpu.core import Core
from repro.cpu.cstates import LADDERS, CStateModel
from repro.cpu.msr import (
    IA32_PERF_CTL, InjectedMsrError, MsrFile, encode_perf_ctl,
)
from repro.cpu.power import CorePowerModel, ServerPowerModel
from repro.cpu.pstates import POLARIS_FREQUENCIES, XEON_E5_2640V3_PSTATES
from repro.cpu.rapl import RaplPackage
from repro.cpu.topology import FrequencyDomain, SocketTopology, make_topology
from repro.db.queues import FifoQueue, RequestQueue
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.core.routing import RoutingPolicy

#: How long :meth:`DatabaseServer.drain` may run (virtual seconds).
DRAIN_TIMEOUT_S = 60.0


class DrainTimeout(RuntimeError):
    """`DatabaseServer.drain` could not empty the server: the virtual
    deadline passed (or the event queue ran dry) with workers still busy
    or holding queued requests.  The message names each undrained worker
    and what it holds."""


class BaselineDispatcher:
    """Shore-MT's default scheduler: FIFO queue, no frequency control.

    Its attributes spell out the dispatcher protocol that every scheme
    family declares as data (DESIGN.md §8).  A :class:`Worker` and the
    fault layer read them directly; a hook that would do nothing is
    ``None``:

    * ``enqueue(request)`` / ``next_request()`` / ``len()`` over
      ``queue`` (here its own bound ``push``/``pop``; a run iterates
      ``queue`` at its end for stranded requests);
    * ``adjusts_on_arrival`` --- run ``select_frequency`` when a
      request arrives at a busy worker, not only at dispatch;
    * ``admits(now, running, running_elapsed, request)`` --- admission
      control before enqueueing (None: admit everything);
    * ``select_frequency(now, running, running_elapsed=0.0)`` ---
      SetProcessorFreq (None: the attached governor owns the core);
    * ``record_completion(request)`` --- feedback from a finished
      request (None: nothing learns);
    * ``estimator`` --- the ``mu(c, f)`` estimator a fault plan skews;
    * ``reads_estimates`` --- whether a decision reads that estimator
      (False: the harness leaves it untrained);
    * ``trace_decisions`` / ``last_decision`` --- the worker sets the
      first while tracing and reads the second after each selection;
    * ``panic`` --- set by the resilience controller's panic mode.
    """

    name = "fifo-baseline"
    adjusts_on_arrival = False
    admits = select_frequency = record_completion = None
    estimator = None
    reads_estimates = False
    trace_decisions = False
    last_decision = None
    panic = False

    def __init__(self):
        self.queue: RequestQueue = FifoQueue()
        self.enqueue = self.queue.push
        self.next_request = self.queue.pop

    def __len__(self) -> int:
        return len(self.queue)


#: ``ServerConfig.routing`` values: the prototype's rotation, built into
#: the server, and the :mod:`repro.core.routing` policies (loaded on use).
ROUTINGS = ("rh-round-robin", "least-loaded", "packing")


@dataclass
class ServerConfig:
    """Server shape and execution options.

    The paper's testbed runs 16 workers; the default here is smaller so
    tests and benches stay fast --- load levels are expressed relative
    to peak throughput, so the comparison shape is preserved (see
    DESIGN.md).
    """

    workers: int = 4
    request_handlers: int = 2
    #: DVFS transition stall (seconds); the paper's MSR path is sub-us.
    transition_latency: float = 0.0
    #: Request routing across workers: "rh-round-robin" reproduces the
    #: prototype's per-RH rotation (Section 5); "least-loaded" and
    #: "packing" come from repro.core.routing (the Section 8 extension).
    routing: str = "rh-round-robin"
    #: Idle ladder: "c1" (the paper's effective setting) or "deep"
    #: (C1/C3/C6 demotion, for the worker-parking extension).
    cstate_ladder: str = "c1"
    #: Frequency-domain granularity: ``None``/"per-core" (independent
    #: P-state registers, the paper's assumption and today's default),
    #: "per-socket", or an explicit
    #: :class:`~repro.cpu.topology.SocketTopology`.  Coarse domains
    #: resolve member requests with the cpufreq max-of-votes rule.
    topology: Optional[object] = None

    def make_topology(self) -> SocketTopology:
        return make_topology(self.topology)

    def make_cstates(self) -> CStateModel:
        if self.cstate_ladder not in LADDERS:
            raise ValueError(
                f"unknown C-state ladder {self.cstate_ladder!r}")
        return CStateModel(LADDERS[self.cstate_ladder])


class Worker:
    """One worker thread pinned to one core.

    ``accept``/``_dispatch_next``/``_on_complete`` run once per
    transaction and dominate the server-side profile after the
    scheduler walk; they bind hot attributes to locals and the class
    uses ``__slots__`` to keep attribute access on the fast path.
    """

    __slots__ = ("worker_id", "core", "msr", "dispatcher", "server",
                 "current", "completed", "_transitions_at_dispatch",
                 "tracer", "trace_track", "_admits", "_select_frequency",
                 "_record_completion")

    def __init__(self, worker_id: int, core: Core, msr: MsrFile,
                 dispatcher, server: "DatabaseServer"):
        self.worker_id = worker_id
        self.core = core
        self.msr = msr
        self.dispatcher = dispatcher
        self.server = server
        #: Dispatcher hooks, read once (the dispatcher is fixed for the
        #: worker's lifetime); None where the dispatcher declares none.
        self._admits = dispatcher.admits
        self._select_frequency = dispatcher.select_frequency
        self._record_completion = dispatcher.record_completion
        self.current: Optional[Request] = None
        self.completed = 0
        self._transitions_at_dispatch = 0
        #: repro.obs: inherited through the simulator like simsan; each
        #: worker gets its own track for execution spans, queue-depth
        #: counters, and SetProcessorFreq decision instants.
        self.tracer = server.sim.tracer
        self.trace_track = self.tracer.track("server",
                                             f"worker-{worker_id}")
        if self.tracer.enabled:
            # Schedulers explain their choices only when someone is
            # listening (see PolarisScheduler.last_decision).
            dispatcher.trace_decisions = True

    def _trace_decision(self, name: str, freq_ghz: Optional[float]) -> None:
        """Emit a SetProcessorFreq instant with the scheduler's stated
        reasoning (slack, floor, queue length) attached when available."""
        decision = self.dispatcher.last_decision
        if decision is not None:
            self.tracer.instant(self.trace_track, name,
                                self.server.sim.now, **decision)
        elif freq_ghz is not None:
            self.tracer.instant(self.trace_track, name,
                                self.server.sim.now, selected_ghz=freq_ghz)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.current is None

    def queue_length(self) -> int:
        return len(self.dispatcher)

    def _apply_frequency(self, freq_ghz: Optional[float]) -> None:
        """Write ``freq_ghz`` to this core's PERF_CTL.  An injected
        write failure leaves the core at its P-state (the resilience
        controller, when armed, retries); any other :class:`MsrError`
        is a bug upstream and propagates."""
        if freq_ghz is None:
            return
        resilience = self.server.resilience
        if resilience is not None:
            # Any new decision supersedes an in-flight DVFS retry.
            resilience.cancel_retry(self)
        if self.core.domain is None \
                and abs(freq_ghz - self.core.freq) <= 1e-12:
            # Per-core only: "already there" means nothing to write.
            # Under a shared domain the core may be riding a sibling's
            # higher vote while its own recorded vote is stale, so a
            # same-frequency decision must still be filed --- dropping
            # it would pin the domain high after the sibling steps down.
            return
        try:
            self.msr.write(IA32_PERF_CTL, encode_perf_ctl(freq_ghz))
        except InjectedMsrError:
            # Injected DVFS write failure: the core rides its current
            # P-state; the resilience layer (if armed) owns the retry.
            if resilience is not None:
                resilience.on_msr_failure(self, freq_ghz)
            return
        if resilience is not None:
            # Verify the write took effect (a "stuck" fault drops it
            # silently).  Throttle clamping --- and, under a shared
            # domain, a sibling's higher vote --- is expected, not a
            # failure: compare against the domain-aware projection.
            expected_ghz = self.core.projected_frequency(freq_ghz)
            if abs(self.core.freq - expected_ghz) > 1e-12:
                resilience.on_msr_failure(self, freq_ghz)

    def pin_frequency(self, freq_ghz: float) -> None:
        """Force a P-state outside the dispatcher's decision path (the
        resilience layer's panic-mode pin).  Same write/retry semantics
        as scheduler decisions."""
        self._apply_frequency(freq_ghz)

    # ------------------------------------------------------------------
    # Arrival path (run by a request-handler thread)
    # ------------------------------------------------------------------
    def accept(self, request: Request) -> None:
        """Enqueue a routed request and run the arrival-path actions.

        Admission control (the dispatcher's ``admits`` hook, when it
        declares one) runs first: a rejected request never enters the
        queue and is reported to the server's rejection listeners.
        When a resilience controller with load shedding is attached,
        overload shedding runs even earlier (a queue past the shed depth
        rejects before the dispatcher is consulted at all).
        """
        server = self.server
        tracer = self.tracer
        resilience = server.resilience
        if resilience is not None and resilience.maybe_shed(self, request):
            request.rejected = True
            if tracer.enabled:
                tracer.instant(self.trace_track, "txn:shed",
                               server.sim.now,
                               txn_type=request.txn_type,
                               deadline=request.deadline)
            server.notify_rejection(request)
            return
        admits = self._admits
        if admits is not None and not admits(
                server.sim.now, self.current,
                self.core.running_elapsed(), request):
            request.rejected = True
            if tracer.enabled:
                tracer.instant(self.trace_track, "txn:rejected",
                               server.sim.now,
                               txn_type=request.txn_type,
                               deadline=request.deadline)
            server.notify_rejection(request)
            return
        self._arrive(request, migrated=False)

    # ------------------------------------------------------------------
    # Degraded-mode entry points (repro.faults)
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Dispatch if idle --- called when a stalled core resumes, so
        requests that queued up during the freeze start draining."""
        if self.idle and not self.core.stalled:
            self._dispatch_next()

    def receive_migrated(self, request: Request) -> None:
        """Adopt a request migrated off a quarantined worker.

        Bypasses admission control and shedding --- the request was
        already admitted once; migration must never lose it.  The
        dispatcher re-sorts it by deadline (EDF queues) and the same
        arrival-path frequency adjustment runs as for a fresh arrival.
        """
        self._arrive(request, migrated=True)

    def _arrive(self, request: Request, migrated: bool) -> None:
        """Queue an admitted request, then dispatch if idle, else run
        SetProcessorFreq on arrival.  ``migrated`` changes only the
        trace: a migrated request's transaction span is already open."""
        dispatcher = self.dispatcher
        tracer = self.tracer
        dispatcher.enqueue(request)
        if tracer.enabled:
            now_s = self.server.sim.now
            if migrated:
                tracer.async_instant("txn", request.request_id,
                                     "txn:migrated", now_s,
                                     worker=self.worker_id)
            else:
                tracer.async_begin("txn", request.request_id,
                                   f"txn:{request.txn_type}", now_s,
                                   worker=self.worker_id,
                                   deadline=request.deadline)
            tracer.counter(self.trace_track,
                           f"queue_depth.w{self.worker_id}", now_s,
                           depth=len(dispatcher))
        if self.current is None:
            self._dispatch_next()
        elif dispatcher.adjusts_on_arrival:
            freq = dispatcher.select_frequency(
                self.server.sim.now, self.current,
                self.core.running_elapsed())
            if tracer.enabled:
                self._trace_decision("setfreq:migrated" if migrated
                                     else "setfreq:arrival", freq)
            self._apply_frequency(freq)

    # ------------------------------------------------------------------
    # Completion path (run by the worker itself)
    # ------------------------------------------------------------------
    def _dispatch_next(self) -> None:
        core = self.core
        if core.stalled:
            # A frozen core cannot start work; arrivals keep queueing
            # until the watchdog migrates them or the core resumes.
            return
        dispatcher = self.dispatcher
        server = self.server
        select = self._select_frequency
        request = dispatcher.next_request()
        if request is None:
            # Empty queue: SetProcessorFreq with no constraints selects
            # the lowest frequency (Figure 2 with Q = {} and no t0), so
            # an idling core drops to its floor operating point.
            if select is not None:
                freq = select(server.sim.now, None)
                if self.tracer.enabled:
                    self._trace_decision("setfreq:idle", freq)
                self._apply_frequency(freq)
            return
        now = server.sim.now
        # SetProcessorFreq before executing the dequeued request: the
        # dequeued transaction is t0 with e0 = 0 (Section 5).
        freq = select(now, request, 0.0) if select is not None else None
        if self.tracer.enabled:
            self._trace_decision("setfreq:dispatch", freq)
            self.tracer.counter(self.trace_track,
                                f"queue_depth.w{self.worker_id}", now,
                                depth=len(dispatcher))
        if freq is not None:
            self._apply_frequency(freq)
        request.dispatch_time = now
        request.worker_id = self.worker_id
        request.dispatch_freq = core.freq
        self._transitions_at_dispatch = core.freq_transitions
        self.current = request
        if self.tracer.enabled:
            self.tracer.async_instant("txn", request.request_id,
                                      "txn:dispatch", now,
                                      worker=self.worker_id,
                                      freq_ghz=core.freq)
            self.tracer.begin(self.trace_track,
                              f"exec:{request.txn_type}", now,
                              deadline=request.deadline,
                              freq_ghz=core.freq)
        core.start_job(request, self._on_complete)

    def _on_complete(self, request: Request) -> None:
        server = self.server
        assert request is self.current
        request.finish_time = server.sim.now
        request.single_freq = \
            self.core.freq_transitions == self._transitions_at_dispatch
        self.current = None
        self.completed += 1
        if self.tracer.enabled:
            now_s = server.sim.now
            met = request.met_deadline
            self.tracer.end(self.trace_track, now_s, met_deadline=met,
                            single_freq=request.single_freq)
            self.tracer.async_end("txn", request.request_id,
                                  f"txn:{request.txn_type}", now_s,
                                  met_deadline=met,
                                  latency_s=request.latency)
        record = self._record_completion
        if record is not None:
            record(request)
        server.notify_completion(request)
        self._dispatch_next()


class DatabaseServer:
    """The simulated server: cores, workers, RH routing, power accounting.

    Cores run the testbed's P-state grid (``XEON_E5_2640V3_PSTATES``)
    under the default :class:`~repro.cpu.power.CorePowerModel`.
    ``scheduler_factory`` builds one in-DBMS scheduler per worker (e.g.
    ``lambda: PolarisScheduler(POLARIS_FREQUENCIES, shared_estimator)``),
    and the cores are then restricted to those five frequencies;
    passing ``None`` installs the FIFO baseline dispatcher on the full
    grid, leaving frequency control to whatever governor the experiment
    attaches.
    """

    def __init__(self, sim: Simulator, config: ServerConfig,
                 scheduler_factory: Optional[Callable[[], object]] = None,
                 initial_freq: Optional[float] = None):
        if config.workers < 1:
            raise ValueError("need at least one worker")
        if config.request_handlers < 1:
            raise ValueError("need at least one request handler")
        self.sim = sim
        self.config = config
        self.server_power = ServerPowerModel()
        if scheduler_factory is not None:
            # In-DBMS schedulers drive the restricted frequency set.
            core_table = XEON_E5_2640V3_PSTATES.subset(POLARIS_FREQUENCIES)
        else:
            core_table = XEON_E5_2640V3_PSTATES

        self.cores: List[Core] = []
        self.workers: List[Worker] = []
        if initial_freq is not None:
            start_freq = initial_freq
        elif scheduler_factory is not None:
            # In-DBMS schedulers explore from the lowest frequency
            # (Section 6.1) and raise cores on demand; cores that never
            # receive work (e.g. parked by the packing router) stay at
            # the floor operating point.
            start_freq = core_table.min_freq
        else:
            start_freq = core_table.max_freq
        self.topology: SocketTopology = config.make_topology()
        if self.topology.per_core:
            effective_latency = config.transition_latency
        else:
            # A shared-PLL re-lock stalls every member core; the slower
            # of the configured DVFS latency and the domain switch
            # latency governs each transition.
            effective_latency = max(config.transition_latency,
                                    self.topology.switch_latency_s)
        power_model = CorePowerModel()
        for worker_id in range(config.workers):
            core = Core(sim, worker_id, core_table,
                        power_model=power_model,
                        cstates=config.make_cstates(),
                        transition_latency=effective_latency,
                        initial_freq=start_freq)
            self.cores.append(core)
        #: Shared frequency domains (topology-aware worker -> core ->
        #: domain mapping).  Empty on the per-core identity topology:
        #: no domain objects exist at all, so every per-core code path
        #: --- traces included --- is bit-identical to the pre-domain
        #: behavior.
        self.domains: List[FrequencyDomain] = []
        if not self.topology.per_core:
            for domain_id, group in enumerate(
                    self.topology.domain_groups(config.workers)):
                self.domains.append(FrequencyDomain(
                    domain_id, [self.cores[i] for i in group]))
        # One RAPL package per 8 cores (two sockets on the testbed).
        self.packages: List[RaplPackage] = []
        for pkg_id in range(0, config.workers, 8):
            self.packages.append(
                RaplPackage(pkg_id // 8, self.cores[pkg_id:pkg_id + 8]))
        for worker_id, core in enumerate(self.cores):
            dispatcher = scheduler_factory() if scheduler_factory \
                else BaselineDispatcher()
            self.workers.append(Worker(worker_id, core, MsrFile(core),
                                       dispatcher, self))

        #: The round-robin moduli, read on every submit.
        self._n_handlers = config.request_handlers
        self._n_workers = config.workers
        self._rh_pointers = [rh % config.workers
                             for rh in range(config.request_handlers)]
        self._next_rh = 0
        self._routing: Optional[RoutingPolicy] = None
        if config.routing != "rh-round-robin":
            from repro.core.routing import make_routing
            self._routing = make_routing(config.routing)
        self._completion_listeners: List[Callable[[Request], None]] = []
        self._rejection_listeners: List[Callable[[Request], None]] = []
        self.submitted = 0
        self.rejected = 0
        # --- repro.faults ---------------------------------------------
        #: The attached ResilienceController, or None (healthy runs).
        self.resilience = None
        #: Worker ids the watchdog declared dead; routing probes past
        #: them.  Membership checks only (never iterated).
        self.quarantined = set()

    # ------------------------------------------------------------------
    # Routing (the RH threads)
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept a request as if it arrived from a client.

        One RH thread handles it (they alternate) and routes it to the
        next worker in that RH's round-robin order.
        """
        if self._routing is not None:
            # Routing policies see the eligible (non-quarantined) set
            # directly, so packing's prefix and least-loaded's choice
            # reason over live workers only.  If everything is
            # quarantined the policy sees all workers (the request then
            # queues on a dead one and is ultimately counted as lost,
            # matching the rh-round-robin fall-through below).
            eligible = None
            if self.quarantined:
                eligible = [index for index in range(self.config.workers)
                            if index not in self.quarantined] or None
            worker_index = self._routing.choose_worker(
                self.workers, request, self.sim.now, eligible=eligible)
        else:
            handlers = self._n_handlers
            workers = self._n_workers
            rh = self._next_rh
            self._next_rh = (rh + 1) % handlers
            worker_index = self._rh_pointers[rh]
            self._rh_pointers[rh] = (worker_index + handlers) % workers
            if self.quarantined:
                # Probe forward past dead workers; if every worker is
                # quarantined, fall through to the original choice (the
                # request then queues and is ultimately counted as lost).
                base = worker_index
                for offset in range(workers):
                    candidate = (base + offset) % workers
                    if candidate not in self.quarantined:
                        worker_index = candidate
                        break
        self.submitted += 1
        self.workers[worker_index].accept(request)

    # ------------------------------------------------------------------
    # Completion fan-out
    # ------------------------------------------------------------------
    def add_completion_listener(self,
                                listener: Callable[[Request], None]) -> None:
        self._completion_listeners.append(listener)

    def add_rejection_listener(self,
                               listener: Callable[[Request], None]) -> None:
        self._rejection_listeners.append(listener)

    def notify_completion(self, request: Request) -> None:
        for listener in self._completion_listeners:
            listener(request)

    def notify_rejection(self, request: Request) -> None:
        self.rejected += 1
        for listener in self._rejection_listeners:
            listener(request)

    # ------------------------------------------------------------------
    # Power / state summaries
    # ------------------------------------------------------------------
    def wall_power(self) -> float:
        """Instantaneous whole-server draw (W)."""
        return self.server_power.wall_power(self.cores)

    def wall_energy(self) -> float:
        """Whole-server energy consumed so far (J)."""
        return self.server_power.wall_energy(self.cores, self.sim.now)

    def cpu_energy(self) -> float:
        """CPU-only energy (the RAPL view), in joules."""
        return sum(pkg.energy_joules(self.sim.now) for pkg in self.packages)

    def total_queue_length(self) -> int:
        return sum(w.queue_length() for w in self.workers)

    def sanitize_accounting(self) -> None:
        """simsan: conservation of requests (the faulted-regime books).

        Every submitted request is, at any instant, exactly one of:
        completed, rejected (admission control or shedding), in flight
        on a core, or queued.  Run after migrations and at end of run;
        callable directly from tests.
        """
        completed = sum(w.completed for w in self.workers)
        in_flight = sum(1 for w in self.workers if w.current is not None)
        queued = self.total_queue_length()
        invariant(self.submitted == completed + self.rejected
                  + in_flight + queued, "request-accounting",
                  "requests were lost or double-counted",
                  submitted=self.submitted, completed=completed,
                  rejected=self.rejected, in_flight=in_flight,
                  queued=queued, now=self.sim.now)

    def close(self) -> None:
        """Unlink the server from the run that is over.

        Workers point back at the server, a core still running a job
        holds its worker's completion callback, and listeners, MSR fault
        hooks and the resilience controller point at whatever armed
        them: reference cycles that would keep the whole run --- and
        every recorder a listener reaches --- alive until a full garbage
        collection.  Dropping those edges lets the run die by reference
        count.  A closed server cannot run again.
        """
        for worker in self.workers:
            worker.server = None
            worker.msr.fault_hook = None
            worker.core.close()
        self._completion_listeners.clear()
        self._rejection_listeners.clear()
        self.resilience = None

    def drain(self) -> None:
        """Run the simulation until every worker is idle and every queue
        is empty.

        ``DRAIN_TIMEOUT_S`` is *virtual* (simulation) seconds, measured on
        ``sim.now`` from the call --- host wall time never enters, so a
        slow machine cannot flip a drain into a failure.  If work
        remains when the virtual deadline passes, or the event queue
        runs dry while requests are still held (a stalled core, a
        dispatcher that lost its wakeup), the failure is reported as a
        :class:`DrainTimeout` naming each undrained worker and what it
        is holding, instead of returning as if the drain succeeded.
        """
        deadline = self.sim.now + DRAIN_TIMEOUT_S
        # Sentinel no-op at the deadline: step() advances to the next
        # event, which may otherwise leap far past the deadline (and a
        # leap that happens to finish the work would turn a blown
        # timeout into silent success).
        self.sim.schedule_at(deadline, lambda: None)
        while True:
            if all(w.idle for w in self.workers) \
                    and self.total_queue_length() == 0:
                return
            if self.sim.now >= deadline:
                raise DrainTimeout(self._drain_report(
                    f"drain exceeded {DRAIN_TIMEOUT_S:g} virtual seconds"))
            if not self.sim.step():
                raise DrainTimeout(self._drain_report(
                    "event queue ran dry with work still held"))

    def _drain_report(self, reason: str) -> str:
        """One line per undrained worker: what it runs, what it queues."""
        lines = [f"{reason} (now={self.sim.now:.6f})"]
        for worker in self.workers:
            queued = worker.queue_length()
            if worker.idle and queued == 0:
                continue
            running = worker.current.txn_type if worker.current else "-"
            lines.append(
                f"  worker {worker.worker_id}: running={running} "
                f"queued={queued} stalled={worker.core.stalled}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Moving queued work between workers (the faults watchdog's migration,
# the fleet's node drain and scale-in)
# ----------------------------------------------------------------------
def drain_worker_queue(worker: Worker) -> List[Request]:
    """Pop every queued request off ``worker``'s dispatcher, in the
    dispatcher's own order."""
    requests = []
    while True:
        request = worker.dispatcher.next_request()
        if request is None:
            return requests
        requests.append(request)


def redistribute_requests(requests: List[Request],
                          workers: List[Worker]) -> None:
    """Hand already-admitted requests to ``workers`` round-robin via
    :meth:`Worker.receive_migrated` (EDF dispatchers re-sort by
    deadline; admission control and shedding are bypassed --- migration
    must not lose work)."""
    for index, request in enumerate(requests):
        workers[index % len(workers)].receive_migrated(request)
