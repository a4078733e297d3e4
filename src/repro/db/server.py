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

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.sanitizer import invariant
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request, RequestState
from repro.core.routing import RoutingPolicy, make_routing
from repro.cpu.core import Core
from repro.cpu.cstates import C1_ONLY, CStateModel, DEEP_LADDER
from repro.cpu.msr import IA32_PERF_CTL, MsrError, MsrFile, encode_perf_ctl
from repro.cpu.power import CorePowerModel, ServerPowerModel
from repro.cpu.pstates import POLARIS_FREQUENCIES, PStateTable, XEON_E5_2640V3_PSTATES
from repro.cpu.rapl import RaplPackage
from repro.cpu.topology import FrequencyDomain, SocketTopology, make_topology
from repro.db.queues import FifoQueue, RequestQueue
from repro.db.storage.errors import Rollback
from repro.sim.engine import Simulator


class DrainTimeout(RuntimeError):
    """`DatabaseServer.drain` could not empty the server: the virtual
    deadline passed (or the event queue ran dry) with workers still busy
    or holding queued requests.  The message names each undrained worker
    and what it holds."""


class BaselineDispatcher:
    """Shore-MT's default scheduler: FIFO queue, no frequency control.

    ``enqueue``/``next_request`` are the queue's own ``push``/``pop``;
    a :class:`Worker` skips the two no-op hooks (see ``_override``)."""

    adjusts_on_arrival = False
    name = "fifo-baseline"

    def __init__(self):
        self.queue: RequestQueue = FifoQueue()
        self.enqueue = self.queue.push
        self.next_request = self.queue.pop

    def select_frequency(self, now: float, running: Optional[Request],
                         running_elapsed: float = 0.0) -> Optional[float]:
        return None  # the attached governor owns the frequency

    def record_completion(self, request: Request) -> None:
        pass

    def __len__(self) -> int:
        return len(self.queue)


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
    #: Frequencies available to in-DBMS schedulers (the paper's five).
    scheduler_frequencies: Tuple[float, ...] = POLARIS_FREQUENCIES
    #: P-state grid of the cores (governors may use the full grid).
    pstate_grid: Optional[PStateTable] = None
    #: DVFS transition stall (seconds); the paper's MSR path is sub-us.
    transition_latency: float = 0.0
    #: Request routing across workers: "rh-round-robin" reproduces the
    #: prototype's per-RH rotation (Section 5); "round-robin",
    #: "least-loaded", and "packing" come from repro.core.routing (the
    #: Section 8 extension).
    routing: str = "rh-round-robin"
    #: Idle ladder: "c1" (the paper's effective setting) or "deep"
    #: (C1/C3/C6 demotion, for the worker-parking extension).
    cstate_ladder: str = "c1"
    #: Frequency-domain granularity: ``None``/"per-core" (independent
    #: P-state registers, the paper's assumption and today's default),
    #: "per-module"/"per-socket", or an explicit
    #: :class:`~repro.cpu.topology.SocketTopology`.  Coarse domains
    #: resolve member requests with the cpufreq max-of-votes rule.
    topology: Optional[object] = None

    def grid(self) -> PStateTable:
        return self.pstate_grid or XEON_E5_2640V3_PSTATES

    def make_topology(self) -> SocketTopology:
        return make_topology(self.topology)

    def make_cstates(self) -> CStateModel:
        if self.cstate_ladder == "c1":
            return CStateModel(C1_ONLY)
        if self.cstate_ladder == "deep":
            return CStateModel(DEEP_LADDER)
        raise ValueError(f"unknown C-state ladder {self.cstate_ladder!r}")


def _override(dispatcher, name: str, base: type) -> Optional[Callable]:
    """``dispatcher.<name>``, or None unless its class overrides the
    no-op ``base.<name>``."""
    hook = getattr(type(dispatcher), name, None)
    return None if hook in (None, getattr(base, name)) \
        else getattr(dispatcher, name)


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
        #: Dispatcher hooks, resolved once (the dispatcher is fixed for
        #: the worker's lifetime): None where a call would be a no-op ---
        #: ``PolarisScheduler.admits`` cannot say no, and FIFO neither
        #: picks a frequency nor learns from a completion.
        self._admits = _override(dispatcher, "admits", PolarisScheduler)
        self._select_frequency = _override(dispatcher, "select_frequency",
                                           BaselineDispatcher)
        self._record_completion = _override(dispatcher, "record_completion",
                                            BaselineDispatcher)
        self.current: Optional[Request] = None
        self.completed = 0
        self._transitions_at_dispatch = 0
        #: repro.obs: inherited through the simulator like simsan; each
        #: worker gets its own track for execution spans, queue-depth
        #: counters, and SetProcessorFreq decision instants.
        self.tracer = server.sim.tracer
        self.trace_track = self.tracer.track("server",
                                             f"worker-{worker_id}")
        if self.tracer.enabled and hasattr(dispatcher, "trace_decisions"):
            # Schedulers that can explain their choices do so only when
            # someone is listening (see PolarisScheduler.last_decision).
            dispatcher.trace_decisions = True

    def _trace_decision(self, name: str, freq_ghz: Optional[float]) -> None:
        """Emit a SetProcessorFreq instant with the scheduler's stated
        reasoning (slack, floor, queue length) attached when available."""
        decision = getattr(self.dispatcher, "last_decision", None)
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
        except MsrError:
            if not self.server.faults_active:
                raise
            # Injected DVFS write failure: the core rides its current
            # P-state; the resilience layer (if armed) owns the retry.
            if resilience is not None:
                resilience.on_msr_failure(self, freq_ghz)
            return
        if self.server.faults_active and resilience is not None:
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

        Admission control (if the dispatcher implements it) runs first:
        a rejected request never enters the queue and is reported to the
        server's rejection listeners.  When a resilience controller with
        load shedding is attached, overload shedding runs even earlier
        (a queue past the shed depth rejects before the dispatcher is
        consulted at all).
        """
        server = self.server
        dispatcher = self.dispatcher
        tracer = self.tracer
        resilience = server.resilience
        if resilience is not None and resilience.maybe_shed(self, request):
            request.state = RequestState.REJECTED
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
            request.state = RequestState.REJECTED
            if tracer.enabled:
                tracer.instant(self.trace_track, "txn:rejected",
                               server.sim.now,
                               txn_type=request.txn_type,
                               deadline=request.deadline)
            server.notify_rejection(request)
            return
        dispatcher.enqueue(request)
        if tracer.enabled:
            now_s = server.sim.now
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
                server.sim.now, self.current,
                self.core.running_elapsed())
            if tracer.enabled:
                self._trace_decision("setfreq:arrival", freq)
            self._apply_frequency(freq)

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
        self.dispatcher.enqueue(request)
        if self.tracer.enabled:
            now_s = self.server.sim.now
            self.tracer.async_instant("txn", request.request_id,
                                      "txn:migrated", now_s,
                                      worker=self.worker_id)
            self.tracer.counter(self.trace_track,
                                f"queue_depth.w{self.worker_id}", now_s,
                                depth=len(self.dispatcher))
        if self.idle:
            self._dispatch_next()
        elif self.dispatcher.adjusts_on_arrival:
            freq = self.dispatcher.select_frequency(
                self.server.sim.now, self.current,
                self.core.running_elapsed())
            if self.tracer.enabled:
                self._trace_decision("setfreq:migrated", freq)
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
        request.state = RequestState.RUNNING
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
        if server.functional_executor is not None:
            request.result = server.functional_executor(request)
        core.start_job(request, self._on_complete)

    def _on_complete(self, request: Request) -> None:
        server = self.server
        assert request is self.current
        request.state = RequestState.DONE
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

    ``scheduler_factory`` builds one in-DBMS scheduler per worker (e.g.
    ``lambda: PolarisScheduler(freqs, shared_estimator)``); passing
    ``None`` installs the FIFO baseline dispatcher, leaving frequency
    control to whatever governor the experiment attaches.
    """

    def __init__(self, sim: Simulator, config: ServerConfig,
                 scheduler_factory: Optional[Callable[[], object]] = None,
                 power_model: Optional[CorePowerModel] = None,
                 initial_freq: Optional[float] = None):
        if config.workers < 1:
            raise ValueError("need at least one worker")
        if config.request_handlers < 1:
            raise ValueError("need at least one request handler")
        self.sim = sim
        self.config = config
        self.power_model = power_model or CorePowerModel()
        self.server_power = ServerPowerModel()
        grid = config.grid()
        if scheduler_factory is not None:
            # In-DBMS schedulers drive the restricted frequency set.
            core_table = grid.subset(config.scheduler_frequencies)
        else:
            core_table = grid

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
        for worker_id in range(config.workers):
            core = Core(sim, worker_id, core_table,
                        power_model=self.power_model,
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
        package_of = {c.core_id: self.packages[c.core_id // 8]
                      for c in self.cores}
        for worker_id, core in enumerate(self.cores):
            dispatcher = scheduler_factory() if scheduler_factory \
                else BaselineDispatcher()
            msr = MsrFile(core, rapl=package_of[core.core_id])
            self.workers.append(Worker(worker_id, core, msr, dispatcher,
                                       self))

        self._rh_pointers = [rh % config.workers
                             for rh in range(config.request_handlers)]
        self._next_rh = 0
        self._routing: Optional[RoutingPolicy] = None
        if config.routing != "rh-round-robin":
            self._routing = make_routing(config.routing)
        self._completion_listeners: List[Callable[[Request], None]] = []
        self._rejection_listeners: List[Callable[[Request], None]] = []
        self.functional_executor: Optional[Callable[[Request], object]] = None
        self.submitted = 0
        self.rejected = 0
        # --- repro.faults ---------------------------------------------
        #: True while a FaultInjector is attached; workers then treat an
        #: MsrError from a P-state write as an injected fault (degraded
        #: operation) instead of a programming error.
        self.faults_active = False
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
            # directly, so packing's prefix and round-robin's pointer
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
            rh = self._next_rh
            self._next_rh = (rh + 1) % self.config.request_handlers
            worker_index = self._rh_pointers[rh]
            self._rh_pointers[rh] = \
                (worker_index + self.config.request_handlers) \
                % self.config.workers
            if self.quarantined:
                # Probe forward past dead workers; if every worker is
                # quarantined, fall through to the original choice (the
                # request then queues and is ultimately counted as lost).
                base = worker_index
                for offset in range(self.config.workers):
                    candidate = (base + offset) % self.config.workers
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
    # Functional execution
    # ------------------------------------------------------------------
    def attach_functional(self, database, bodies: Dict[str, Callable],
                          config, rng: random.Random) -> None:
        """Execute real transaction bodies at dispatch time.

        The body runs against the storage engine when the request is
        dispatched; its simulated *duration* still comes from the
        request's drawn work.  TPC-C's 1% New Order rollback surfaces as
        a caught :class:`Rollback` (the transaction aborts cleanly).
        """
        def executor(request: Request):
            body = bodies.get(request.txn_type)
            if body is None:
                return None
            try:
                return body(database, rng, config, now=self.sim.now)
            except Rollback:
                return {"rolled_back": True}

        self.functional_executor = executor

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

    def drain(self, timeout: float = 60.0) -> None:
        """Run the simulation until every worker is idle and every queue
        is empty (for tests).

        ``timeout`` is *virtual* (simulation) seconds, measured on
        ``sim.now`` from the call --- host wall time never enters, so a
        slow machine cannot flip a drain into a failure.  If work
        remains when the virtual deadline passes, or the event queue
        runs dry while requests are still held (a stalled core, a
        dispatcher that lost its wakeup), the failure is reported as a
        :class:`DrainTimeout` naming each undrained worker and what it
        is holding, instead of returning as if the drain succeeded.
        """
        deadline = self.sim.now + timeout
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
                    f"drain exceeded {timeout:g} virtual seconds"))
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
