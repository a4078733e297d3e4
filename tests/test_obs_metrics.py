"""repro.obs.metrics: the virtual-time sampler over a gauges dict."""

import pytest

from repro.obs import metrics
from repro.obs.metrics import MetricsSampler
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator


@pytest.fixture
def one_second(monkeypatch):
    """A sampler cadence of one virtual second."""
    monkeypatch.setattr(metrics, "SAMPLE_INTERVAL_S", 1.0)


def test_sampler_samples_on_virtual_cadence(one_second):
    sim = Simulator()
    sampler = MetricsSampler(sim, {"clock": lambda: sim.now})
    sampler.start()
    sim.schedule(3.5, sim.stop)
    sim.run()
    points = sampler.series["clock"]
    assert [t for t, _ in points] == [0.0, 1.0, 2.0, 3.0]
    assert [v for _, v in points] == [0.0, 1.0, 2.0, 3.0]


def test_gauge_reads_its_callback():
    """A gauge is read live at each sample and coerced to float."""
    sim = Simulator()
    state = {"depth": 7}
    sampler = MetricsSampler(sim, {"live": lambda: state["depth"]})
    sampler.sample_once()
    state["depth"] = 2
    sim.schedule(1.0, sim.stop)
    sim.run()
    sampler.sample_once()
    assert sampler.series["live"] == [(0.0, 7.0), (1.0, 2.0)]
    assert all(type(v) is float for _, v in sampler.series["live"])


def test_registry_registration_and_sampling():
    """The sampler reads the gauges dict in name order, whatever order
    the plant built it in."""
    read = []
    sampler = MetricsSampler(Simulator(), {
        "b_counter": lambda: read.append("b_counter") or 1,
        "a_gauge": lambda: read.append("a_gauge") or 9.0})
    sampler.sample_once()
    assert read == ["a_gauge", "b_counter"]
    assert sampler.series == {"a_gauge": [(0.0, 9.0)],
                              "b_counter": [(0.0, 1.0)]}


def test_sampler_stop_and_final_sample(one_second):
    sim = Simulator()
    state = {"done": 0}
    sampler = MetricsSampler(sim, {"done": lambda: state["done"]})
    sampler.start()
    sim.schedule(2.5, sim.stop)
    sim.run()
    sampler.stop()
    state["done"] = 5
    sampler.sample_once()
    points = sampler.series["done"]
    assert points[-1] == (2.5, 5.0)
    # sample_once at an already-sampled time is a no-op.
    sampler.sample_once()
    assert points[-1] == (2.5, 5.0)
    # Stopping cancelled the pending event: nothing fires afterwards.
    sim.schedule(5.0, sim.stop)
    sim.run()
    assert len(sampler.series["done"]) == len(points)


def test_sampler_mirrors_onto_tracer(one_second):
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    sampler = MetricsSampler(sim, {"power_watts": lambda: 42.0},
                             tracer=tracer)
    sampler.start()
    sim.schedule(1.5, sim.stop)
    sim.run()
    counters = [e for e in tracer.events if e["ph"] == "C"]
    assert len(counters) == 2
    track = tracer.tracks[("metrics", "power_watts")]
    assert all(e["name"] == "power_watts" and e["args"] == {"value": 42.0}
               and (e["pid"], e["tid"]) == track for e in counters)


# ----------------------------------------------------------------------
# The server plant's miss count and latency mean
# ----------------------------------------------------------------------
@pytest.fixture
def plant_run():
    """A one-worker FIFO server under the plant's gauges; ``submit(n)``
    runs ``n`` requests of 1 ms at 2.8 GHz against a 1.5 ms target, so all
    but the first miss."""
    from repro.core.request import Request
    from repro.core.workload import Workload
    from repro.db.server import DatabaseServer, ServerConfig
    from repro.harness.experiment import ExperimentConfig, ServerPlant
    from repro.harness.schemes import SCHEMES
    from repro.sim.rng import RandomStreams

    sim = Simulator()
    server = DatabaseServer(sim, ServerConfig(workers=1))
    plant = ServerPlant(sim, ExperimentConfig(), SCHEMES["static-2.8"],
                        None, RandomStreams(1), lambda: server, 1.0)
    gauges = plant.gauges()

    def submit(n):
        requests = [Request(Workload("w", 0.0015), "t", sim.now, 2.8e-3)
                    for _ in range(n)]
        for request in requests:
            server.submit(request)
        sim.run()
        return requests

    return gauges, submit


def test_counter_monotone(plant_run):
    gauges, submit = plant_run
    assert gauges["deadline_misses"]() == 0.0
    submit(3)
    assert gauges["deadline_misses"]() == 2.0
    submit(2)
    assert gauges["deadline_misses"]() == 3.0
    assert gauges["txn_completed"]() == 5


def test_histogram_samples_its_running_mean(plant_run):
    gauges, submit = plant_run
    requests = submit(3) + submit(2)
    total = 0.0
    for request in requests:
        total += request.latency
    assert gauges["txn_latency_s"]() == total / 5


def test_histogram_empty(plant_run):
    gauges, _ = plant_run
    assert gauges["txn_latency_s"]() == 0.0
