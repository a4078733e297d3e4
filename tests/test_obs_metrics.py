"""repro.obs.metrics: instruments, registry, virtual-time sampler."""

import pytest

from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricRegistry, MetricsSampler,
)
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_monotone():
    c = Counter("deadline_misses")
    c.inc()
    c.inc()
    assert c.sample() == 2.0


def test_gauge_reads_its_callback():
    state = {"depth": 7}
    live = Gauge("live", lambda: state["depth"])
    assert live.sample() == 7.0
    state["depth"] = 2
    assert live.sample() == 2.0
    assert type(live.sample()) is float


def test_histogram_samples_its_running_mean():
    h = Histogram("lat")
    for v in (0.005, 0.05, 0.05, 0.5, 5.0):
        h.observe(v)
    assert h.count == 5
    assert h.sample() == pytest.approx(sum((0.005, 0.05, 0.05, 0.5, 5.0)) / 5)


def test_histogram_empty():
    assert Histogram("lat").sample() == 0.0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_registration_and_sampling():
    reg = MetricRegistry()
    c = reg.counter("b_counter")
    reg.gauge("a_gauge", lambda: 9.0)
    c.inc()
    assert reg.sample_all() == [("a_gauge", 9.0), ("b_counter", 1.0)]


def test_registry_rejects_duplicates():
    reg = MetricRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x", lambda: 0.0)


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
def test_sampler_samples_on_virtual_cadence():
    sim = Simulator()
    reg = MetricRegistry()
    reg.gauge("clock", lambda: sim.now)
    sampler = MetricsSampler(sim, reg, interval_s=1.0)
    sampler.start()
    sim.schedule(3.5, sim.stop)
    sim.run()
    points = sampler.series["clock"]
    assert [t for t, _ in points] == [0.0, 1.0, 2.0, 3.0]
    assert [v for _, v in points] == [0.0, 1.0, 2.0, 3.0]


def test_sampler_stop_and_final_sample():
    sim = Simulator()
    reg = MetricRegistry()
    state = {"done": 0}
    reg.gauge("done", lambda: state["done"])
    sampler = MetricsSampler(sim, reg, interval_s=1.0)
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


def test_sampler_mirrors_onto_tracer():
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    reg = MetricRegistry()
    reg.gauge("power_watts", lambda: 42.0)
    sampler = MetricsSampler(sim, reg, interval_s=1.0, tracer=tracer)
    sampler.start()
    sim.schedule(1.5, sim.stop)
    sim.run()
    counters = [e for e in tracer.events if e.ph == "C"]
    assert len(counters) == 2
    assert all(e.name == "power_watts" and e.args == {"value": 42.0}
               for e in counters)


def test_sampler_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        MetricsSampler(sim, MetricRegistry(), interval_s=0.0)
