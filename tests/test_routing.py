"""Request-routing policies (the Section 8 extension)."""

import pytest

from repro.core import routing
from repro.core.routing import (
    LeastLoadedRouting, PackingRouting, ROUTING_POLICIES, RoutingPolicy,
    make_routing,
)


def packing(monkeypatch, cap):
    """A packing policy whose backlog cap is ``cap``."""
    monkeypatch.setattr(routing, "MAX_BACKLOG", cap)
    return PackingRouting()


class FakeWorker:
    def __init__(self, idle=True, queued=0):
        self.idle = idle
        self._queued = queued

    def queue_length(self):
        return self._queued


def test_least_loaded_prefers_idle():
    policy = LeastLoadedRouting()
    workers = [FakeWorker(idle=False, queued=0),
               FakeWorker(idle=True, queued=0),
               FakeWorker(idle=False, queued=3)]
    assert policy.choose_worker(workers, None, 0.0) == 1


def test_least_loaded_breaks_ties_by_queue_then_index():
    policy = LeastLoadedRouting()
    workers = [FakeWorker(idle=False, queued=2),
               FakeWorker(idle=False, queued=1),
               FakeWorker(idle=False, queued=1)]
    assert policy.choose_worker(workers, None, 0.0) == 1


def test_packing_fills_low_indices_first(monkeypatch):
    policy = packing(monkeypatch, 2)
    workers = [FakeWorker(idle=False, queued=0),  # backlog 1 -> room
               FakeWorker(idle=True, queued=0),
               FakeWorker(idle=True, queued=0)]
    assert policy.choose_worker(workers, None, 0.0) == 0


def test_packing_spills_when_saturated(monkeypatch):
    policy = packing(monkeypatch, 2)
    workers = [FakeWorker(idle=False, queued=1),  # backlog 2 -> full
               FakeWorker(idle=False, queued=1),  # full
               FakeWorker(idle=True, queued=0)]   # room
    assert policy.choose_worker(workers, None, 0.0) == 2


def test_packing_falls_back_to_least_backlogged(monkeypatch):
    policy = packing(monkeypatch, 1)
    workers = [FakeWorker(idle=False, queued=5),
               FakeWorker(idle=False, queued=2),
               FakeWorker(idle=False, queued=9)]
    assert policy.choose_worker(workers, None, 0.0) == 1


def test_make_routing():
    assert isinstance(make_routing("least-loaded"), LeastLoadedRouting)
    assert isinstance(make_routing("packing"), PackingRouting)
    with pytest.raises(KeyError):
        make_routing("bogus")
    assert set(ROUTING_POLICIES) == {"least-loaded", "packing"}


def test_base_policy_abstract():
    with pytest.raises(NotImplementedError):
        RoutingPolicy().choose_worker([], None, 0.0)


# ----------------------------------------------------------------------
# Eligible-worker sets (quarantine visibility)
# ----------------------------------------------------------------------
def test_least_loaded_ignores_ineligible_idle_worker():
    """Worker 1 is idle (the tempting choice) but quarantined; the
    policy must pick the best *eligible* worker instead."""
    policy = LeastLoadedRouting()
    workers = [FakeWorker(idle=False, queued=2),
               FakeWorker(idle=True, queued=0),
               FakeWorker(idle=False, queued=1)]
    assert policy.choose_worker(workers, None, 0.0, eligible=[0, 2]) == 2


def test_packing_prefix_skips_quarantined_worker(monkeypatch):
    """Packing's active prefix is the eligible order: with worker 0
    dead, worker 1 becomes the pack target even though 0 has 'room'."""
    policy = packing(monkeypatch, 2)
    workers = [FakeWorker(idle=True, queued=0),
               FakeWorker(idle=False, queued=0),
               FakeWorker(idle=True, queued=0)]
    assert policy.choose_worker(workers, None, 0.0, eligible=[1, 2]) == 1


def test_packing_fallback_restricted_to_eligible(monkeypatch):
    policy = packing(monkeypatch, 1)
    workers = [FakeWorker(idle=False, queued=1),   # dead, least backlog
               FakeWorker(idle=False, queued=5),
               FakeWorker(idle=False, queued=3)]
    assert policy.choose_worker(workers, None, 0.0, eligible=[1, 2]) == 2


# ----------------------------------------------------------------------
# End-to-end through the server
# ----------------------------------------------------------------------
def test_server_packing_parks_workers(sim):
    from repro.core.request import Request
    from repro.core.workload import Workload
    from repro.db.server import DatabaseServer, ServerConfig

    server = DatabaseServer(sim, ServerConfig(workers=4, routing="packing"))
    workload = Workload("w", 1.0)
    # One 1 ms job every 2 ms: worker 0 is always free again in time,
    # so packing parks workers 1-3 entirely.
    for i in range(12):
        sim.schedule_at(i * 2e-3, lambda: server.submit(
            Request(workload, "t", sim.now, 2.8e-3)))
    sim.run()
    completions = [w.completed for w in server.workers]
    assert completions[0] == 12
    assert completions[1:] == [0, 0, 0]


def test_server_least_loaded_spreads(sim):
    from repro.core.request import Request
    from repro.core.workload import Workload
    from repro.db.server import DatabaseServer, ServerConfig

    server = DatabaseServer(sim, ServerConfig(workers=4,
                                              routing="least-loaded"))
    workload = Workload("w", 1.0)
    for i in range(4):
        server.submit(Request(workload, "t", sim.now, 28.0))
    assert [w.idle for w in server.workers] == [False] * 4


def test_server_packing_reroutes_around_quarantined_prefix(sim):
    """Dying-core x packing interplay: once the watchdog quarantines
    worker 0, packing's active prefix starts at worker 1 --- the dead
    worker receives nothing and the pack target is not chosen by the
    old choose-then-probe fall-through (which skewed backlog checks by
    consulting the dead worker's queue)."""
    from repro.core.request import Request
    from repro.core.workload import Workload
    from repro.db.server import DatabaseServer, ServerConfig

    server = DatabaseServer(sim, ServerConfig(workers=4, routing="packing"))
    server.quarantined.add(0)
    workload = Workload("w", 1.0)
    for i in range(8):
        sim.schedule_at(i * 2e-3, lambda: server.submit(
            Request(workload, "t", sim.now, 2.8e-3)))
    sim.run()
    completions = [w.completed for w in server.workers]
    assert completions == [0, 8, 0, 0]


def test_server_least_loaded_avoids_quarantined_idle_worker(sim):
    """Dying-core x least-loaded interplay: a quarantined worker is
    always idle (nothing dispatches), making it the policy's favorite
    target forever unless the eligible set hides it."""
    from repro.core.request import Request
    from repro.core.workload import Workload
    from repro.db.server import DatabaseServer, ServerConfig

    server = DatabaseServer(sim, ServerConfig(workers=3,
                                              routing="least-loaded"))
    server.quarantined.add(1)
    workload = Workload("w", 1000.0)
    for _ in range(6):
        server.submit(Request(workload, "t", sim.now, 28.0))
    backlog = [w.queue_length() + (0 if w.idle else 1)
               for w in server.workers]
    assert backlog == [3, 0, 3]


def test_server_rejects_unknown_routing(sim):
    from repro.db.server import DatabaseServer, ServerConfig

    with pytest.raises(KeyError):
        DatabaseServer(sim, ServerConfig(workers=2, routing="bogus"))


def test_server_deep_cstates_configured(sim):
    from repro.db.server import DatabaseServer, ServerConfig

    server = DatabaseServer(sim, ServerConfig(workers=2,
                                              cstate_ladder="deep"))
    assert len(server.cores[0].cstates.ladder) == 3
    with pytest.raises(ValueError):
        DatabaseServer(sim, ServerConfig(workers=2, cstate_ladder="bogus"))


def test_scheduler_cores_start_at_floor(sim):
    from repro.core.estimator import ExecutionTimeEstimator
    from repro.core.polaris import PolarisScheduler
    from repro.cpu.pstates import POLARIS_FREQUENCIES
    from repro.db.server import DatabaseServer, ServerConfig

    config = ServerConfig(workers=2)
    estimator = ExecutionTimeEstimator()
    server = DatabaseServer(
        sim, config,
        scheduler_factory=lambda: PolarisScheduler(
            POLARIS_FREQUENCIES, estimator))
    assert all(core.freq == 1.2 for core in server.cores)
    baseline = DatabaseServer(sim, ServerConfig(workers=2))
    assert all(core.freq == 2.8 for core in baseline.cores)
