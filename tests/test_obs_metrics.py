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
    c = Counter("txn_completed")
    c.inc()
    c.inc(2.5)
    assert c.sample() == 3.5
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_set_and_callback():
    g = Gauge("queue_depth")
    g.set(4)
    assert g.sample() == 4.0
    state = {"depth": 7}
    live = Gauge("live", fn=lambda: state["depth"])
    assert live.sample() == 7.0
    state["depth"] = 2
    assert live.sample() == 2.0


def test_histogram_buckets():
    h = Histogram("lat", bounds=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.05, 0.5, 5.0):
        h.observe(v)
    assert h.count == 5
    assert h.bucket_counts == [1, 2, 1, 1]
    assert h.sample() == pytest.approx(sum((0.005, 0.05, 0.05, 0.5, 5.0)) / 5)


def test_histogram_empty():
    h = Histogram("lat")
    assert h.sample() == 0.0
    assert h.bucket_counts == [0] * (len(Histogram.DEFAULT_BOUNDS) + 1)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_registration_and_sampling():
    reg = MetricRegistry()
    c = reg.counter("b_counter")
    reg.gauge("a_gauge", fn=lambda: 9.0)
    c.inc(3)
    assert reg.names() == ["a_gauge", "b_counter"]
    assert reg.sample_all() == [("a_gauge", 9.0), ("b_counter", 3.0)]
    assert "a_gauge" in reg and len(reg) == 2
    assert reg.get("b_counter") is c


def test_registry_rejects_duplicates():
    reg = MetricRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
def test_sampler_samples_on_virtual_cadence():
    sim = Simulator()
    reg = MetricRegistry()
    reg.gauge("clock", fn=lambda: sim.now)
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
    counter = reg.counter("done")
    sampler = MetricsSampler(sim, reg, interval_s=1.0)
    sampler.start()
    sim.schedule(2.5, sim.stop)
    sim.run()
    sampler.stop()
    counter.inc(5)
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
    reg.gauge("power_watts", fn=lambda: 42.0)
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
