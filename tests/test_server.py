"""The database server: routing, workers, scheduling glue."""

import hashlib

import pytest

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request, RequestState
from repro.core.workload import Workload
from repro.cpu.calibration import STATIC_WATTS
from repro.cpu.pstates import POLARIS_FREQUENCIES
from repro.db import server as server_module
from repro.db.server import BaselineDispatcher, DatabaseServer, ServerConfig
from repro.faults import resolve_fault_plan
from repro.fleet.config import FleetConfig
from repro.governors.static import UserspaceGovernor
from repro.harness.experiment import ExperimentConfig, RunFlags, run_experiment
from repro.harness.schemes import SCHEMES
from repro.sim.engine import Simulator

WORKLOAD = Workload("w", 0.050)


def make_server(sim, workers=4, scheduler=False, **config_kwargs):
    config = ServerConfig(workers=workers, **config_kwargs)
    estimator = ExecutionTimeEstimator()
    factory = None
    if scheduler:
        factory = lambda: PolarisScheduler(  # noqa: E731
            POLARIS_FREQUENCIES, estimator)
    return DatabaseServer(sim, config, scheduler_factory=factory), estimator


def submit_n(server, n, work=2.8e-3, workload=WORKLOAD):
    requests = []
    for i in range(n):
        request = Request(workload, "t", server.sim.now, work)
        server.submit(request)
        requests.append(request)
    return requests


def test_round_robin_routing(sim):
    server, _ = make_server(sim, workers=4)
    requests = submit_n(server, 8)
    workers_hit = [r.worker_id for r in requests]
    sim.run()
    workers_hit = [r.worker_id for r in requests]
    assert sorted(workers_hit) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_requests_complete_with_correct_timing(sim):
    server, _ = make_server(sim, workers=1)
    requests = submit_n(server, 3, work=2.8e-3)  # 1 ms each at 2.8 GHz
    sim.run()
    finishes = [r.finish_time for r in requests]
    assert finishes == pytest.approx([1e-3, 2e-3, 3e-3])
    assert all(r.state is RequestState.DONE for r in requests)
    assert all(r.single_freq for r in requests)


def test_non_preemptive_execution(sim):
    """A shorter-deadline request arriving mid-run waits for the
    running transaction (POLARIS is non-preemptive)."""
    server, estimator = make_server(sim, workers=1, scheduler=True)
    for freq in (1.2, 1.6, 2.0, 2.4, 2.8):
        estimator.prime("w", freq, 10e-3 * 2.8 / freq, count=5)
        estimator.prime("fast", freq, 0.1e-3 * 2.8 / freq, count=5)
    slow = Request(Workload("w", 0.1), "w", 0.0, 28e-3)  # 10 ms at 2.8
    server.submit(slow)
    urgent_holder = []

    def send_urgent():
        urgent = Request(Workload("fast", 0.05), "fast", sim.now, 0.28e-3)
        urgent_holder.append(urgent)
        server.submit(urgent)

    sim.schedule(1e-3, send_urgent)
    sim.run()
    urgent = urgent_holder[0]
    assert urgent.dispatch_time >= slow.finish_time - 1e-12


def test_completion_listeners_fire(sim):
    server, _ = make_server(sim, workers=2)
    seen = []
    server.add_completion_listener(seen.append)
    requests = submit_n(server, 5)
    sim.run()
    assert len(seen) == 5
    assert set(id(r) for r in seen) == set(id(r) for r in requests)


def test_polaris_edf_dispatch_order(sim):
    server, estimator = make_server(sim, workers=1, scheduler=True)
    # Occupy the worker, then queue a late-deadline before an
    # early-deadline request; EDF must run the early one first.
    blocker = Request(WORKLOAD, "t", 0.0, 2.8e-3)
    late = Request(Workload("late", 1.0), "late", 0.0, 2.8e-3)
    early = Request(Workload("early", 0.01), "early", 0.0, 2.8e-3)
    server.submit(blocker)
    server.submit(late)
    server.submit(early)
    sim.run()
    assert early.dispatch_time < late.dispatch_time


def test_baseline_fifo_dispatch_order(sim):
    server, _ = make_server(sim, workers=1)
    blocker = Request(WORKLOAD, "t", 0.0, 2.8e-3)
    late = Request(Workload("late", 1.0), "late", 0.0, 2.8e-3)
    early = Request(Workload("early", 0.01), "early", 0.0, 2.8e-3)
    for request in (blocker, late, early):
        server.submit(request)
    sim.run()
    assert late.dispatch_time < early.dispatch_time


def test_governor_controls_frequency_for_baseline(sim):
    server, _ = make_server(sim, workers=1)
    UserspaceGovernor(1.6).attach(server.cores[0], sim)
    request = submit_n(server, 1, work=1.6e-3)[0]  # 1 ms at 1.6
    sim.run()
    assert request.dispatch_freq == 1.6
    assert request.execution_time == pytest.approx(1e-3)


def test_polaris_applies_frequency_via_msr(sim):
    server, estimator = make_server(sim, workers=1, scheduler=True)
    for freq in (1.2, 1.6, 2.0, 2.4, 2.8):
        estimator.prime("w", freq, 1e-3 * 2.8 / freq, count=5)
    request = Request(Workload("w", 0.050), "w", 0.0, 1.2e-3)
    server.submit(request)
    sim.run()
    # Loose 50 ms deadline: POLARIS dispatches at the minimum frequency.
    assert request.dispatch_freq == 1.2


def test_single_freq_flag_cleared_on_mid_run_change(sim):
    server, estimator = make_server(sim, workers=1, scheduler=True)
    for freq in (1.2, 1.6, 2.0, 2.4, 2.8):
        estimator.prime("slow", freq, 5e-3 * 2.8 / freq, count=5)
        estimator.prime("fast", freq, 0.1e-3 * 2.8 / freq, count=5)
    slow = Request(Workload("slow", 0.5), "slow", 0.0, 14e-3)
    server.submit(slow)
    sim.schedule(1e-3, lambda: server.submit(
        Request(Workload("fast", 0.004), "fast", sim.now, 0.28e-3)))
    sim.run()
    assert not slow.single_freq  # bumped mid-run by the urgent arrival


def test_wall_power_and_energy(sim):
    server, _ = make_server(sim, workers=2)
    idle = server.wall_power()
    assert idle > STATIC_WATTS
    submit_n(server, 1, work=28.0)  # long job
    busy = server.wall_power()
    assert busy > idle
    sim.schedule(1.0, sim.stop)
    sim.run()
    assert server.wall_energy() > 0
    assert server.cpu_energy() > 0
    assert server.cpu_energy() < server.wall_energy()


def test_rapl_packages_group_cores(sim):
    server, _ = make_server(sim, workers=16)
    assert len(server.packages) == 2
    assert len(server.packages[0].cores) == 8


def test_drain_runs_queues_empty(sim):
    server, _ = make_server(sim, workers=1)
    submit_n(server, 10)
    server.drain()
    assert server.total_queue_length() == 0
    assert all(w.idle for w in server.workers)


def test_drain_timeout_is_virtual_time(sim, monkeypatch):
    """``DRAIN_TIMEOUT_S`` bounds *virtual* seconds, and the error
    names the workers still holding work."""
    from repro.db.server import DrainTimeout
    monkeypatch.setattr(server_module, "DRAIN_TIMEOUT_S", 0.5)
    server, _ = make_server(sim, workers=2)
    # Worker 0: a 10-virtual-second transaction plus one queued behind.
    submit_n(server, 1, work=28.0)
    sim.run(until=1e-4)  # request handler hop: let it start executing
    submit_n(server, 2, work=28.0)
    with pytest.raises(DrainTimeout) as excinfo:
        server.drain()
    message = str(excinfo.value)
    assert "0.5 virtual seconds" in message
    assert "worker 0" in message
    assert "queued=1" in message
    # Virtual time advanced to (at least) the deadline, not past the
    # undrainable work.
    assert 0.5 <= sim.now < 10.0


def test_drain_timeout_leaves_idle_workers_out_of_the_report(
        sim, monkeypatch):
    from repro.db.server import DrainTimeout
    monkeypatch.setattr(server_module, "DRAIN_TIMEOUT_S", 0.2)
    server, _ = make_server(sim, workers=2)
    submit_n(server, 1, work=28.0)  # lands on worker 0 only
    sim.run(until=1e-4)
    with pytest.raises(DrainTimeout) as excinfo:
        server.drain()
    assert "worker 1" not in str(excinfo.value)


def test_drain_generous_timeout_succeeds(sim):
    server, _ = make_server(sim, workers=1)
    submit_n(server, 3, work=2.8e-3)  # ~1 ms each
    server.drain()
    assert all(w.idle for w in server.workers)
    assert sim.now < 1.0


def test_config_validation(sim):
    with pytest.raises(ValueError):
        DatabaseServer(sim, ServerConfig(workers=0))
    with pytest.raises(ValueError):
        DatabaseServer(sim, ServerConfig(request_handlers=0))


def test_baseline_dispatcher_interface():
    dispatcher = BaselineDispatcher()
    # FIFO admits everything, leaves the frequency to the governor and
    # learns nothing: it declares none of the three hooks.
    assert dispatcher.admits is None
    assert dispatcher.select_frequency is None
    assert dispatcher.record_completion is None
    request = Request(WORKLOAD, "t", 0.0, 1.0)
    dispatcher.enqueue(request)
    assert len(dispatcher) == 1
    assert list(dispatcher.queue) == [request]
    assert dispatcher.next_request() is request


# ----------------------------------------------------------------------
# The dispatcher protocol: every family declares every hook as data
# ----------------------------------------------------------------------
#: Hooks a worker calls: each is a callable or None.
HOOKS = ("enqueue", "next_request", "admits", "select_frequency",
         "record_completion")
#: Hooks a family may declare None, on the class.
OPTIONAL_HOOKS = ("admits", "select_frequency", "record_completion")
#: Data the worker, the fault layer and the harness read or set.
DATA = ("name", "adjusts_on_arrival", "queue", "estimator",
        "reads_estimates", "trace_decisions", "last_decision", "panic")
SCHEDULER_SCHEMES = sorted(name for name, scheme in SCHEMES.items()
                           if scheme.uses_scheduler)


def _dispatcher(name):
    if name == "fifo-baseline":
        return BaselineDispatcher()
    return SCHEMES[name].make_scheduler_factory(
        POLARIS_FREQUENCIES, ExecutionTimeEstimator(), sanitize=False)()


@pytest.mark.parametrize("name", ["fifo-baseline", *SCHEDULER_SCHEMES])
def test_every_dispatcher_declares_the_whole_protocol(name, sim):
    dispatcher = _dispatcher(name)
    assert dispatcher.name == name
    for hook in HOOKS:
        value = getattr(dispatcher, hook)
        assert value is None or callable(value), (name, hook)
    for hook in OPTIONAL_HOOKS:
        assert hasattr(type(dispatcher), hook), (name, hook)
    for attr in DATA:
        assert hasattr(dispatcher, attr), (name, attr)
    assert type(dispatcher.adjusts_on_arrival) is bool
    assert type(dispatcher.reads_estimates) is bool
    assert dispatcher.trace_decisions is False
    assert dispatcher.last_decision is None
    assert dispatcher.panic is False
    assert len(dispatcher) == 0 and list(dispatcher.queue) == []
    # The worker binds exactly what the dispatcher declares.
    server = DatabaseServer(sim, ServerConfig(workers=1),
                            scheduler_factory=lambda: dispatcher)
    worker = server.workers[0]
    for hook in OPTIONAL_HOOKS:
        assert getattr(worker, f"_{hook}") == getattr(dispatcher, hook)


# ----------------------------------------------------------------------
# Dispatcher hooks: read once, skipped when the dispatcher declares None
# ----------------------------------------------------------------------
class _FifoThatScales(BaselineDispatcher):
    """A FIFO dispatcher that does pick a frequency and does learn."""

    def __init__(self):
        super().__init__()
        self.selected = []
        self.recorded = []

    def select_frequency(self, now, running, running_elapsed=0.0):
        self.selected.append(running)
        return 2.0

    def record_completion(self, request):
        self.recorded.append(request)


def test_fifo_worker_resolves_its_noop_hooks_to_none(sim):
    server, _ = make_server(sim, workers=1)
    worker = server.workers[0]
    assert worker._select_frequency is None
    assert worker._record_completion is None
    assert worker._admits is None


def test_baseline_subclass_overrides_are_still_called(sim):
    dispatcher = _FifoThatScales()
    server = DatabaseServer(sim, ServerConfig(workers=1),
                            scheduler_factory=lambda: dispatcher)
    requests = submit_n(server, 2)
    sim.run()
    # Once per dispatch, then once with an empty queue.
    assert dispatcher.selected == [*requests, None]
    assert dispatcher.recorded == requests
    assert [r.dispatch_freq for r in requests] == [2.0, 2.0]
    assert server.cores[0].freq == 2.0


#: Small traced cells, by label.  Besides the two healthy cells, a
#: dying core reaches ``finalize``'s truncated spans and migrated
#: transactions, a per-socket topology the frequency-domain track, and
#: a one-shard fleet with a crash the failover async spans.
TRACE_CELLS = {
    "ondemand": dict(scheme="ondemand", workers=2, warmup_seconds=0.2,
                     test_seconds=0.4, seed=9),
    "polaris": dict(scheme="polaris", workers=2, warmup_seconds=0.2,
                    test_seconds=0.4, seed=9),
    "polaris-dying-core": dict(scheme="polaris", faults="dying-core",
                               workers=2, warmup_seconds=0.2,
                               test_seconds=0.8, seed=3),
    "per-socket": dict(topology="per-socket", topology_switch_latency=5e-5,
                       workers=4, warmup_seconds=0.2, test_seconds=0.4,
                       seed=5),
    "fleet-shard-crash": dict(
        fleet=FleetConfig(shards=1, replicas_per_shard=1, node_workers=1),
        faults="shard-crash", load_fraction=0.3, warmup_seconds=0.2,
        test_seconds=2.0, seed=7),
}

#: sha256 of each cell's Chrome-trace export and series CSV.  Dispatch
#: paths that skip no-op hooks or forwarding frames, and the tracer's
#: own storage, must not move a byte of what a traced run records.
TRACE_SHA256 = {
    "ondemand": ("47e12a5839bf245bff0887b95924e6f4368f518a1c7898a66d1d3de7d79b093a",
                 "542ec3bab7b6c52bb251f56fe11d57a6d164b75bc7709cc9e25346d250bad08f"),
    "polaris": ("975a6d975caef72902fdcb9c4c3e1d45fac2976ed62882b4b1282843753f94a5",
                "c6ad8caa6eb3805481f476b5f9c4642ee7c1921436175db70e99ea4b75f50e6f"),
    "polaris-dying-core": (
        "33331172bed678f50d4f934f4e0c07d5db6ea6739fb6ae4308610cc564dd4b25",
        "5ac3914edf9f89e0adea03c0e3e6b88ec4ce86a275c1894ebe0484e2bcad7ab4"),
    "per-socket": (
        "5b6e4e8ca0accfd2717e6026c4174a19cda441420a92586ec9fa98e3540f5784",
        "6b5bc54f0fc8093f93123dbb18be751b298556bdb7805ea6d3b7b04399e6730d"),
    "fleet-shard-crash": (
        "182fe6f8bea0e0b92328ebf032062e3ee0e00078c844c38880b50410d48bde88",
        "6a2c483d938baff319eead7cff48af5909bf2b8e45c3fee13ca39a096efabf8d"),
}


@pytest.mark.parametrize("scheme", sorted(TRACE_CELLS))
def test_traced_exports_are_byte_identical(scheme, tmp_path):
    cell = ExperimentConfig(**TRACE_CELLS[scheme],
                            trace_path=str(tmp_path / "trace.json"),
                            trace_series_path=str(tmp_path / "series.csv"))
    run_experiment(cell, flags=RunFlags(
        sanitize=False, trace=True, plan=resolve_fault_plan(cell.faults)))
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (tmp_path / "trace.json",
                                 tmp_path / "series.csv"))
    assert digests == TRACE_SHA256[scheme]
