"""Run one experimental configuration through the paper's methodology.

Each run follows Section 6.1's three phases:

1. **Warmup** --- the server executes offered load with nothing recorded
   (the paper warms each worker with 30,000 transactions; here a time
   window, since load levels are rate-controlled).
2. **Training** --- POLARIS's execution-time estimators are initialized
   "by filling the initial sliding window for each frequency level and
   request type combination".  The harness fills each window with draws
   from the calibrated service model at the corresponding frequency,
   which is what running the training transactions at each level would
   measure.
3. **Test** --- power and performance are measured: mean wall power over
   the phase (one-second meter samples) and the failure rate over
   requests *arriving* in the phase (the simulation drains afterwards so
   stragglers count as failures rather than being censored).

Loads are expressed as fractions of the server's peak throughput,
derived from the service-time model exactly as the paper derives its
60%/30%/90% levels from measured peak throughput.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.sanitizer import simsan_enabled
from repro.core.estimator import ExecutionTimeEstimator
from repro.core.request import Request
from repro.core.workload import Workload, WorkloadManager
from repro.cpu.topology import make_topology
from repro.db.server import DatabaseServer, ServerConfig
from repro.faults.injector import FaultInjector, wrap_estimator, wrap_rate
from repro.faults.plan import FaultPlan, FaultsLike, resolve_fault_plan
from repro.faults.resilience import ResilienceController
from repro.fleet.config import FleetConfig
from repro.governors.base import GovernorSet
from repro.harness.profiling import perf_clock
from repro.harness.schemes import scheme_named
from repro.metrics.latency import LatencyRecorder
from repro.metrics.power import PowerMeter
from repro.obs.export import export_chrome_trace, export_series_csv
from repro.obs.metrics import MetricRegistry, MetricsSampler
from repro.obs.trace import NULL_TRACER, Tracer, trace_enabled
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads import tpcc, tpce, ycsb
from repro.workloads.arrivals import OpenLoopGenerator, RateSchedule
from repro.workloads.base import BenchmarkSpec

#: benchmark name -> spec factory.
BENCHMARKS: Dict[str, Callable[[], BenchmarkSpec]] = {
    "tpcc": lambda: tpcc.make_spec(include_bodies=False),
    "tpce": lambda: tpce.make_spec(include_bodies=False),
}
# YCSB core workloads (the Section 8 key-value target): ycsb-a .. ycsb-f.
for _letter in "abcdef":
    BENCHMARKS[f"ycsb-{_letter}"] = (
        lambda letter=_letter: ycsb.make_spec(letter, include_bodies=False))

#: Load calibration.  The paper expresses loads as fractions of the
#: *measured* peak throughput of its testbed.  That measurement embeds
#: hyperthread and request-handler interference, which grows with load:
#: the paper's own numbers (peak 21250 txn/s over 16 workers against a
#: 1.2-1.6 ms mean transaction time) imply per-worker utilization above
#: what isolated workers could sustain, i.e. effective service times
#: under load exceed the Figure 3 times used to set deadlines.  The
#: simulator's workers are isolated, so a nominal fraction of measured
#: peak maps onto a *higher* fraction of isolated-worker capacity, and
#: increasingly so at higher load.  The anchors below are fitted so the
#: 2.8 GHz static baseline reproduces the paper's failure-rate levels
#: at each of its three load settings (Figures 6, 8, 9): ~15% at
#: medium / slack 10, near zero at low, and intermittent saturation
#: (not sustained overload) at high.
LOAD_ANCHORS = ((0.0, 0.0), (0.3, 0.27), (0.6, 0.75), (0.9, 0.92),
                (1.0, 0.97))


#: Wall-power meter cadence (paper: one reading per second).
METER_INTERVAL_S = 1.0


def effective_load_fraction(nominal: float) -> float:
    """Map a paper-nominal load fraction onto simulator utilization
    by piecewise-linear interpolation of the calibration anchors."""
    if nominal <= 0:
        return 0.0
    for (x0, y0), (x1, y1) in zip(LOAD_ANCHORS, LOAD_ANCHORS[1:]):
        if nominal <= x1:
            return y0 + (y1 - y0) * (nominal - x0) / (x1 - x0)
    return LOAD_ANCHORS[-1][1]


@dataclass
class ExperimentConfig:
    """One experimental cell.

    ``load_fraction`` follows the paper's levels: 0.3 (low), 0.6
    (medium), 0.9 (high).  ``slack`` scales per-type latency targets;
    for the tier policy, ``tier_targets`` gives absolute targets.
    """

    benchmark: str = "tpcc"
    scheme: str = "polaris"
    load_fraction: float = 0.6
    slack: float = 40.0
    workers: int = 4
    request_handlers: int = 2
    warmup_seconds: float = 1.0
    test_seconds: float = 8.0
    drain_limit_seconds: float = 10.0
    seed: int = 42
    #: Estimator parameters (paper: S=1000, 95 <= p <= 99, default 95).
    estimator_window: int = 1000
    estimator_percentile: float = 95.0
    #: "per-type" (Sections 6.2-6.4) or "tiers" (Section 6.5).
    workload_policy: str = "per-type"
    tier_targets: Optional[Dict[str, float]] = None
    #: Optional normalized (0..1) load trace; overrides load_fraction
    #: with a per-second rate between trace_low and trace_high fractions
    #: of peak (the Section 6.4 experiment).
    load_trace: Optional[List[float]] = None
    trace_low_fraction: float = 0.3
    trace_high_fraction: float = 0.9
    #: Ablation: feed mixed-frequency runs back into the estimator (the
    #: naive attribute-to-dispatch-frequency policy; see
    #: PolarisScheduler.update_on_mixed_freq).  Applies to every
    #: scheduler of the cell: each worker of the server, or of every
    #: node of a fleet.
    estimator_mixed_freq_updates: bool = False
    #: DVFS transition stall for the sensitivity ablation.
    transition_latency: float = 0.0
    #: Power timeline bin width for trace experiments (Figure 10(a)).
    timeline_bin_seconds: float = 5.0
    #: Request routing across workers ("rh-round-robin" is the paper's;
    #: "packing" is the Section 8 worker-parking extension).
    routing: str = "rh-round-robin"
    #: Idle C-state ladder: "c1" (paper-effective) or "deep" (extension).
    cstate_ladder: str = "c1"
    #: Frequency-domain granularity: "per-core" (independent P-state
    #: registers, the paper's assumption and the default --- runs are
    #: bit-identical to pre-domain builds), "per-module", or
    #: "per-socket" (cpufreq max-of-votes coordination).  Part of the
    #: sweep-cache key via ``asdict``, so cached per-core results are
    #: never served for coarse-domain cells or vice versa.
    topology: str = "per-core"
    #: Domain P-state switch stall (seconds) on shared-domain
    #: topologies; ignored at per-core granularity.
    topology_switch_latency: float = 0.0
    #: repro.obs: ``None`` defers to ``REPRO_TRACE``; True/False force
    #: tracing on/off for this cell.  Setting either export path
    #: implies ``trace=True``.
    trace: Optional[bool] = None
    #: Write the Chrome/Perfetto trace JSON here after the run.
    trace_path: Optional[str] = None
    #: Write the sampled metric series as CSV here after the run.
    trace_series_path: Optional[str] = None
    #: Metrics sampling cadence on the virtual clock (seconds).
    trace_sample_interval_s: float = 0.25
    #: repro.faults: ``None`` defers to ``REPRO_FAULTS``; a
    #: :class:`~repro.faults.plan.FaultPlan`, scenario name (e.g.
    #: ``"burst+brownout"``), or JSON plan path forces one for this
    #: cell.  An empty plan is inert, so ``faults=None`` with no env is
    #: bit-identical to a run without the faults subsystem.
    faults: FaultsLike = None
    #: repro.fleet: set to a :class:`~repro.fleet.config.FleetConfig`
    #: to run this cell as a sharded/replicated *fleet* of servers
    #: (``workers``/``request_handlers`` above are then ignored in
    #: favour of the fleet's per-node shape).  ``None`` keeps the
    #: single-server path bit-identical to pre-fleet builds; being a
    #: nested dataclass, every fleet knob salts the sweep-cache key
    #: through ``asdict``.
    fleet: Optional[FleetConfig] = None

    def validate(self) -> None:
        """Reject out-of-range fields here, by name, rather than from
        inside the engine (``scheme`` is checked by ``scheme_named``).
        Every rule is written so that NaN fails it."""
        def need(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ValueError(
                    f"{name} {rule}, got {getattr(self, name)!r}")

        need(self.benchmark in BENCHMARKS, "benchmark",
             f"must be one of {', '.join(sorted(BENCHMARKS))}")
        need(math.isfinite(self.slack) and self.slack > 0, "slack",
             "must be finite and positive")
        need(self.workers >= 1, "workers", "must be at least 1")
        for name in ("load_fraction", "warmup_seconds",
                     "drain_limit_seconds"):
            need(getattr(self, name) >= 0, name, "cannot be negative")
        need(self.load_trace is not None or self.test_seconds > 0,
             "test_seconds", "must be positive without a load_trace")
        need(self.load_trace is None or len(self.load_trace) > 0,
             "load_trace", "cannot be empty")
        for index, sample in enumerate(self.load_trace or ()):
            if not 0.0 <= sample <= 1.0:
                raise ValueError(
                    "load_trace samples must be finite and in [0, 1] "
                    "(what workloads.traces.normalize produces), "
                    f"got {sample!r} at index {index}")
        need(self.timeline_bin_seconds > 0, "timeline_bin_seconds",
             "must be positive")
        if self.fleet is not None:
            self.fleet.validate()


@dataclass
class ExperimentResult:
    """What the paper reports for one run, plus diagnostics."""

    config: ExperimentConfig
    scheme_label: str
    avg_power_watts: float
    failure_rate: float
    offered: int
    completed: int
    missed: int
    rejected: int
    throughput: float
    peak_throughput: float
    per_workload_failure: Dict[str, float]
    per_workload_offered: Dict[str, int]
    cpu_energy_joules: float
    wall_energy_joules: float
    freq_residency: Dict[float, float]
    power_timeline: List[Tuple[float, float]] = field(default_factory=list)
    load_timeline: List[float] = field(default_factory=list)
    mean_latency_by_workload: Dict[str, float] = field(default_factory=dict)
    #: Diagnostics: simulator events executed and host wall time for this
    #: cell.  Excluded from any figure output (they are host-dependent,
    #: while everything above is seed-deterministic).
    sim_events: int = 0
    wall_seconds: float = 0.0
    #: Trace events recorded (0 when tracing is off); seed-deterministic.
    trace_events: int = 0
    #: repro.faults: injected fault firings, degradation-action counts
    #: (retry/migration/shed/panic...), and requests stranded at end of
    #: run.  All zero/empty on healthy runs; seed-deterministic.
    faults_injected: int = 0
    degradation_actions: Dict[str, int] = field(default_factory=dict)
    lost: int = 0
    #: repro.fleet: per-shard deadline-miss rates and offered counts
    #: (keys ``"shard0"``...), stale reads bounced to primaries,
    #: router/controller action counts, and the (time_s, active nodes)
    #: timeline.  All zero/empty on single-server cells;
    #: seed-deterministic.
    per_shard_failure: Dict[str, float] = field(default_factory=dict)
    per_shard_offered: Dict[str, int] = field(default_factory=dict)
    stale_reads: int = 0
    fleet_actions: Dict[str, int] = field(default_factory=dict)
    node_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: repro.fleet chaos/failover (PR 9): per-shard write-path
    #: availability over the test window (keys ``"shard0"``...),
    #: committed transactions lost to crashes (buffered WAL tails plus
    #: never-shipped durable records trimmed at promotion), completed
    #: failovers and their mean MTTR, shards whose write path was still
    #: down at end of run, p99.9 latency of test-window completions, and
    #: the (time_s, shard_id, event, node_id) failover timeline.  All
    #: zero/empty on healthy and single-server cells;
    #: seed-deterministic.
    availability: Dict[str, float] = field(default_factory=dict)
    lost_commits: int = 0
    failovers: int = 0
    mttr_s: float = 0.0
    unserved_shards: int = 0
    p999_latency_s: float = 0.0
    failover_timeline: List[Tuple[float, int, str, int]] = \
        field(default_factory=list)

    def summary(self) -> str:
        return (f"{self.scheme_label:28s} power={self.avg_power_watts:6.1f} W"
                f"  failure={self.failure_rate:6.3f}"
                f"  thpt={self.throughput:8.1f}/s")


def _build_workloads(config: ExperimentConfig,
                     spec: BenchmarkSpec) -> WorkloadManager:
    if config.workload_policy == "per-type":
        return WorkloadManager.per_type_with_slack(spec, config.slack)
    if config.workload_policy == "tiers":
        if not config.tier_targets:
            raise ValueError("tier policy requires tier_targets")
        return WorkloadManager.tiers(config.tier_targets)
    raise ValueError(f"unknown workload policy {config.workload_policy!r}")


def _train_estimator(estimator: ExecutionTimeEstimator,
                     manager: WorkloadManager, spec: BenchmarkSpec,
                     frequencies: Tuple[float, ...], config: ExperimentConfig,
                     rng: random.Random) -> None:
    """Phase 2: fill each (workload, frequency) window.

    For per-type workloads the window receives draws of that type's
    service time scaled to each frequency; tier workloads receive draws
    from the full mix (what measuring the tier's transactions yields).
    """
    fill = estimator.window
    for workload in manager.workloads:
        if config.workload_policy == "per-type":
            models = [spec.type_named(workload.name).service]
            weights = [1.0]
        else:
            models = [t.service for t in spec.types]
            weights = [spec.mix_fraction(t.name) for t in spec.types]
        columns: List[List[float]] = [[] for _ in frequencies]
        for _ in range(fill):
            u = rng.random()
            acc = 0.0
            model = models[-1]
            for m, w in zip(models, weights):
                acc += w
                if u <= acc:
                    model = m
                    break
            ref_seconds = model.draw_seconds(rng)
            for column, freq in zip(columns, frequencies):
                column.append(ref_seconds * model.ref_freq_ghz / freq)
        for column, freq in zip(columns, frequencies):
            estimator.fill(workload.name, freq, column)


class ServerPlant:
    """The paper's plant: one :class:`DatabaseServer` under load.

    A plant is what :func:`run_experiment` drives; it hides what differs
    between tiers (``FleetPlant`` in :mod:`repro.fleet.experiment` is
    the other): the admit sink, the servers in a fixed order, the wall
    energy, the trace gauges, fault arming, timers and result extras.
    """

    #: Prefix of the kernel's RNG stream names at this tier.
    stream_prefix = ""

    def __init__(self, sim: Simulator, config: "ExperimentConfig", scheme,
                 plan: Optional[FaultPlan], streams: RandomStreams,
                 make_server: Callable[[], DatabaseServer],
                 node_peak: float):
        if plan is not None and plan.has_fleet_faults:
            raise ValueError(
                "the fault plan carries fleet faults (node crashes / "
                "partitions / replica lag) but this is a single-server "
                "cell; set config.fleet to run it as a fleet")
        self.scheme_label = scheme.label
        self.peak_throughput = node_peak
        # repro.faults: everything fault-related is gated on `plan is
        # not None`, so a healthy run touches no fault code path at all.
        self.injector = FaultInjector(sim, plan, streams.get("faults")) \
            if plan is not None else None
        self.server = server = make_server()
        self.resilience = ResilienceController(sim, server, plan.degradation) \
            if plan is not None and plan.degradation.any_enabled else None
        self.servers = [server]
        self.admit = server.submit
        self.wall_energy = server.wall_energy
        self.sanitize_accounting = server.sanitize_accounting

    def attach(self, recorder: LatencyRecorder) -> None:
        """Arm the plan's faults, then wire the recorder (listener
        order is pinned: the degradation controller's come first)."""
        server = self.server
        if self.resilience is not None:
            self.resilience.attach()
        if self.injector is not None:
            self.injector.attach(server)
        server.add_completion_listener(recorder.on_completion)
        server.add_rejection_listener(recorder.on_rejection)

    def register_gauges(self, registry: MetricRegistry) -> None:
        """The Prometheus-style registry mirrors what the paper plots
        over time (Figures 6-12): wall power, queue depth, per-core
        frequency, misses, latency.  Gauges read live simulation state
        through callbacks; the sampler snapshots everything on the
        virtual clock, so the series are seed-deterministic."""
        server = self.server
        registry.gauge("power_watts", "instantaneous wall draw",
                       fn=server.wall_power)
        registry.gauge("queue_depth_total", "requests queued, all workers",
                       fn=lambda: float(server.total_queue_length()))
        registry.gauge("pending_events", "live simulator events",
                       fn=lambda: float(server.sim.pending_count()))
        for core in server.cores:
            registry.gauge(f"freq_ghz.core{core.core_id}",
                           "core operating frequency",
                           fn=lambda c=core: c.freq)
        miss_counter = registry.counter("deadline_misses")
        done_counter = registry.counter("txn_completed")
        reject_counter = registry.counter("txn_rejected")
        latency_hist = registry.histogram("txn_latency_s")

        def _obs_completion(request: Request) -> None:
            done_counter.inc()
            latency_hist.observe(request.latency)
            if not request.met_deadline:
                miss_counter.inc()

        server.add_completion_listener(_obs_completion)
        server.add_rejection_listener(lambda _r: reject_counter.inc())

    def end_of_test(self) -> None:
        """Nothing on a single server scales with offered load."""

    def end_of_drain(self) -> None:
        """No tier-level timers to stop."""

    def charge_loss(self, server: DatabaseServer, request: Request) -> None:
        """One server, one set of books: the recorder's."""

    def extras(self) -> Dict[str, object]:
        return dict(
            scheme_label=self.scheme_label,
            faults_injected=(self.injector.total_injected
                             if self.injector is not None else 0),
            degradation_actions=(
                {k: v for k, v in self.resilience.actions.items() if v}
                if self.resilience is not None else {}))


@dataclass(frozen=True)
class RunFlags:
    """The three run switches of one cell, resolved once.

    :func:`run_experiment` builds from this value and nothing inside a
    run reads the environment; :func:`dynamics_key`, :func:`rescored`
    and the sweep cache's ``config_key`` hash the same value; a sweep
    resolves it in the parent and ships it to the worker beside the
    config.  So the cell that was hashed is the cell that ran.
    """

    #: Audit simulation invariants while running (simsan).
    sanitize: bool
    #: Record the run with ``repro.obs``.
    trace: bool
    #: The fault plan in force; ``None`` when the run is healthy.
    plan: Optional[FaultPlan]

    @classmethod
    def resolve(cls, config: ExperimentConfig) -> "RunFlags":
        """An explicit ``config`` field wins over the environment:
        ``trace`` (implied on by either export path, since an export
        was asked for) over ``REPRO_TRACE``, ``faults`` over
        ``REPRO_FAULTS`` (an empty plan forces health); the sanitizer
        has no field and follows ``REPRO_SIMSAN``.  The only place
        under ``repro.harness`` that consults those variables."""
        want_trace = config.trace
        if want_trace is None and (config.trace_path
                                   or config.trace_series_path):
            want_trace = True
        return cls(sanitize=simsan_enabled(),
                   trace=trace_enabled(want_trace),
                   plan=resolve_fault_plan(config.faults))


def dynamics_key(config: ExperimentConfig,
                 flags: Optional[RunFlags] = None) -> str:
    """Cells with equal keys run the same simulation.

    ``slack`` only sets deadlines, so the key drops it for a cell in
    which nothing reads a deadline before the recorder scores a
    completion: the scheme has no in-DBMS scheduler (FIFO dispatch
    under a governor), no fault plan is in force (the degradation
    controller watches the miss rate), the run is not traced (trace
    arguments and the obs miss counter carry deadlines) and it is not a
    fleet (the shard books score completions too).  Such cells differ
    only in what :func:`rescored` recomputes.  Any other cell keeps
    every field, so only an identical cell shares its key.
    """
    flags = flags or RunFlags.resolve(config)
    fields = asdict(config)
    if not (scheme_named(config.scheme).uses_scheduler
            or flags.plan is not None or flags.trace
            or config.fleet is not None):
        del fields["slack"]
    return json.dumps(fields, sort_keys=True, default=repr)


def run_experiment(config: ExperimentConfig,
                   tracer: Optional[Tracer] = None,
                   recorder: Optional[LatencyRecorder] = None,
                   flags: Optional[RunFlags] = None) -> ExperimentResult:
    """Execute one cell and return the paper's metrics for it.

    The one run loop --- build, drive, collect --- over a single server
    or (``config.fleet`` set) a fleet.  Pass an explicit ``tracer`` to
    capture the run's trace in-process (otherwise ``flags.trace``
    decides), an explicit ``recorder`` to keep the run's completion
    instants (what :func:`rescored` reads), and the ``flags`` a sweep
    already resolved for this cell (otherwise they are resolved here).
    """
    wall_start = perf_clock()
    config.validate()
    flags = flags or RunFlags.resolve(config)
    # -- Build -------------------------------------------------------
    scheme = scheme_named(config.scheme)
    spec = BENCHMARKS[config.benchmark]()
    streams = RandomStreams(config.seed)
    plan = flags.plan
    if tracer is None:
        tracer = Tracer() if flags.trace else NULL_TRACER
    sim = Simulator(sanitize=flags.sanitize, tracer=tracer)
    manager = _build_workloads(config, spec)
    if config.fleet is None:
        plant_class = ServerPlant
        workers, handlers = config.workers, config.request_handlers
    else:
        # repro.fleet builds on this module, and server cells must not
        # pay its import --- hence the local import.
        from repro.fleet.experiment import FleetPlant as plant_class
        workers = config.fleet.node_workers
        handlers = config.fleet.node_request_handlers
    prefix = plant_class.stream_prefix

    topology = make_topology(config.topology)
    if not topology.per_core and config.topology_switch_latency > 0:
        topology = replace(
            topology, switch_latency_s=config.topology_switch_latency)
    server_config = ServerConfig(
        workers=workers,
        request_handlers=handlers,
        transition_latency=config.transition_latency,
        routing=config.routing,
        cstate_ladder=config.cstate_ladder,
        topology=topology,
    )

    estimator = ExecutionTimeEstimator(config.estimator_window,
                                       config.estimator_percentile)
    if plan is not None:
        # Misprediction skew wraps the estimator *before* the scheduler
        # factory captures it, so every scheduler sees skewed estimates
        # while observations still feed the real windows.
        estimator = wrap_estimator(estimator, sim, plan.skews)
    factory: Optional[Callable[[], object]] = None
    if scheme.uses_scheduler:
        factory = scheme.make_scheduler_factory(
            server_config.scheduler_frequencies, estimator, flags.sanitize)
        if config.estimator_mixed_freq_updates:
            def factory(_base=factory):
                scheduler = _base()
                scheduler.update_on_mixed_freq = True
                return scheduler
        _train_estimator(estimator, manager, spec,
                         server_config.scheduler_frequencies, config,
                         streams.get(prefix + "training"))
    governor_sets: List[GovernorSet] = []

    def make_server() -> DatabaseServer:
        server = DatabaseServer(sim, server_config,
                                scheduler_factory=factory,
                                initial_freq=scheme.initial_freq)
        if factory is None:
            assert scheme.governor_factory is not None
            governors = GovernorSet(scheme.governor_factory)
            governors.attach_all(server.cores, sim)
            governor_sets.append(governors)
        return server

    plant = plant_class(sim, config, scheme, plan, streams, make_server,
                        spec.peak_throughput(workers))

    # -- Drive -------------------------------------------------------
    peak = plant.peak_throughput
    if config.load_trace is not None:
        low = effective_load_fraction(config.trace_low_fraction) * peak
        high = effective_load_fraction(config.trace_high_fraction) * peak
        schedule = RateSchedule(
            [low + v * (high - low) for v in config.load_trace])
        rate_fn, test_duration = schedule.rate_at, schedule.duration
    else:
        target = effective_load_fraction(config.load_fraction) * peak
        rate_fn = lambda _now: target  # noqa: E731 - tiny adapter
        test_duration = config.test_seconds
    if plan is not None:
        rate_fn = wrap_rate(rate_fn, plan.bursts)

    # The three per-arrival streams consume entropy through random()
    # only, so they serve pre-drawn blocks (bit-identical; see
    # BatchedStream).  The tier stream draws with randrange() and must
    # stay unbatched.
    service_rng = streams.get_batched(prefix + "service-times")
    mix_rng = streams.get_batched(prefix + "mix")
    tier_rng = streams.get(prefix + "tier-assignment")
    tiers = manager.workloads if config.workload_policy == "tiers" else None
    choose_type = spec.choose_type
    manager_get = manager.get
    admit = plant.admit

    def on_arrival(now: float) -> None:
        txn_type = choose_type(mix_rng)
        if tiers is not None:
            workload = tiers[tier_rng.randrange(len(tiers))]
        else:
            workload = manager_get(txn_type.name)
        admit(Request(workload, txn_type.name, now,
                      txn_type.service.draw_work(service_rng)))

    generator = OpenLoopGenerator(sim, rate_fn, on_arrival,
                                  streams.get_batched(prefix + "arrivals"))

    # Setup-time scheduling order is part of determinism (event seq
    # breaks ties): governors at build, then the plant's faults and
    # timers, the sampler, the generator, the meter at priority -10.
    test_start = config.warmup_seconds
    test_end = test_start + test_duration
    if recorder is None:
        recorder = LatencyRecorder()
    recorder.set_window(test_start, test_end)
    plant.attach(recorder)

    sampler: Optional[MetricsSampler] = None
    if tracer.enabled:
        registry = MetricRegistry()
        plant.register_gauges(registry)
        sampler = MetricsSampler(
            sim, registry, interval_s=config.trace_sample_interval_s,
            tracer=tracer)
        sampler.start()

    # The meter's cadence is the paper's, clamped so short test windows
    # (small-scale tests) still collect several readings.
    meter = PowerMeter(sim, plant.wall_energy,
                       streams.get(prefix + "meter-noise"),
                       interval=min(METER_INTERVAL_S, test_duration / 4.0))

    generator.start()
    sim.schedule_at(test_start, meter.start, priority=-10)
    sim.run(until=test_end)
    generator.stop()
    plant.end_of_test()
    # Drain: let in-flight and queued test-phase requests finish so late
    # completions register as failures instead of being censored.
    servers = plant.servers
    drain_end = test_end + config.drain_limit_seconds
    while sim.now < drain_end:
        if all(w.idle and not w.queue_length()
               for server in servers for w in server.workers):
            break
        if not sim.step():
            break
    meter.stop()
    plant.end_of_drain()
    # Whatever is still queued or in flight when the drain ends --- the
    # drain limit passed, a core is dead or stalled --- will never
    # finish; it counts as offered-and-missed, so neither a short drain
    # nor a killed core can censor casualties into a better failure rate.
    for server in servers:
        for worker in server.workers:
            stranded = list(getattr(worker.dispatcher, "queue", None) or ())
            if worker.current is not None:
                stranded.append(worker.current)
            for request in stranded:
                recorder.on_lost(request)
                plant.charge_loss(server, request)
    if sim.sanitize:
        plant.sanitize_accounting()

    trace_event_count = 0
    if sampler is not None:  # tracing is on
        sampler.stop()
        sampler.sample_once()  # final state at the end of the drain
        tracer.finalize(sim.now)
        trace_event_count = len(tracer.events)
        if config.trace_path:
            export_chrome_trace(tracer, config.trace_path)
        if config.trace_series_path:
            export_series_csv(sampler, config.trace_series_path)

    # -- Collect -----------------------------------------------------
    residency: Dict[float, float] = {}
    for server in servers:
        for core in server.cores:
            core.flush_accounting()
            for freq, seconds in core.freq_residency.items():
                residency[freq] = residency.get(freq, 0.0) + seconds
    for governors in governor_sets:
        governors.detach_all()

    per_workload = recorder.per_workload.items()
    return ExperimentResult(
        config=config,
        avg_power_watts=meter.average_power(test_start, test_end),
        failure_rate=recorder.failure_rate,
        offered=recorder.total_offered,
        completed=recorder.total_completed,
        missed=recorder.total_missed,
        rejected=recorder.total_rejected,
        throughput=recorder.total_completed / test_duration,
        peak_throughput=peak,
        per_workload_failure={
            name: stats.failure_rate for name, stats in per_workload},
        per_workload_offered={
            name: stats.offered for name, stats in per_workload},
        cpu_energy_joules=sum(server.cpu_energy() for server in servers),
        wall_energy_joules=plant.wall_energy(),
        freq_residency=residency,
        power_timeline=(meter.binned_average(test_start, test_end,
                                             config.timeline_bin_seconds)
                        if meter.samples else []),
        load_timeline=list(config.load_trace or []),
        mean_latency_by_workload={
            name: stats.mean_latency()
            for name, stats in per_workload if stats.arrivals},
        sim_events=sim.events_processed,
        wall_seconds=perf_clock() - wall_start,
        trace_events=trace_event_count,
        lost=recorder.total_lost,
        **plant.extras(),
    )


def rescored(result: ExperimentResult, recorder: LatencyRecorder,
             config: ExperimentConfig,
             flags: Optional[RunFlags] = None) -> ExperimentResult:
    """What ``run_experiment(config, flags=flags)`` would have
    returned, given the ``result`` and ``recorder`` of a run with the
    same :func:`dynamics_key` under those flags: the same simulation,
    scored against ``config``'s latency targets.  Only ``missed``,
    ``failure_rate``, ``per_workload_failure`` and ``config`` change;
    every other field is shared with ``result``."""
    config.validate()
    flags = flags or RunFlags.resolve(config)
    if dynamics_key(config, flags) != dynamics_key(result.config, flags):
        raise ValueError("config does not run the simulation the result "
                         "came from (dynamics keys differ)")
    targets = _build_workloads(config, BENCHMARKS[config.benchmark]())
    missed = {name: stats.missed_under(targets.get(name).latency_target)
              for name, stats in recorder.per_workload.items()}
    total_missed = sum(missed.values())
    return replace(
        result, config=config, missed=total_missed,
        failure_rate=(total_missed / result.offered
                      if result.offered else 0.0),
        per_workload_failure={
            name: missed[name] / stats.offered
            for name, stats in recorder.per_workload.items()})
