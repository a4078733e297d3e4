"""repro.obs.export + end-to-end instrumentation.

Covers the Chrome trace-event exporter and validator on synthetic
tracers, then the real thing: a traced small-scale Figure-6 cell must
export Perfetto-loadable JSON containing transaction spans, P-state
transition instants with decision annotations, and counter tracks ---
and two same-seed runs must produce byte-identical files.
"""

import dataclasses
import json

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.obs.export import (
    build_trace_events, export_chrome_trace, export_series_csv,
    validate_chrome_trace,
)
from repro.obs import metrics
from repro.obs.metrics import MetricsSampler
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator

FAST = dict(workers=2, warmup_seconds=0.2, test_seconds=1.0, seed=7)


def small_tracer():
    tracer = Tracer()
    track = tracer.track("server", "worker-0")
    tracer.async_begin("txn", "r1", "txn:a", 0.0)
    tracer.instant(track, "setfreq:dispatch", 0.001, selected_ghz=2.8)
    tracer.begin(track, "exec:a", 0.001, freq_ghz=2.8)
    tracer.end(track, 0.002)
    tracer.counter(track, "queue_depth", 0.002, depth=3)
    tracer.async_end("txn", "r1", "txn:a", 0.002)
    return tracer


# ----------------------------------------------------------------------
# build / export / validate on synthetic traces
# ----------------------------------------------------------------------
def test_build_trace_events_shapes():
    tracer = small_tracer()
    events = build_trace_events(tracer)
    # The tracer's own records follow the metadata, unchanged.
    assert events[4:] == tracer.events
    by_ph = {}
    for ev in events:
        by_ph.setdefault(ev["ph"], []).append(ev)
    # Two tracks -> four metadata records naming them.
    assert len(by_ph["M"]) == 4
    names = {e["args"]["name"] for e in by_ph["M"]}
    assert {"server", "worker-0", "txn"} <= names
    assert by_ph["i"][0]["s"] == "t"
    assert by_ph["B"][0]["ts"] == 1000  # microseconds
    assert by_ph["b"][0]["cat"] == "txn"
    assert by_ph["b"][0]["id"] == 1


def test_export_validate_roundtrip(tmp_path):
    path = str(tmp_path / "trace.json")
    written = export_chrome_trace(small_tracer(), path)
    stats = validate_chrome_trace(path)
    assert stats["events"] == written
    assert stats["phase_counts"]["B"] == stats["phase_counts"]["E"] == 1
    payload = json.loads(open(path).read())
    assert isinstance(payload["traceEvents"], list)


def test_validator_rejects_structural_breakage(tmp_path):
    def write(events):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
        return path

    base = {"pid": 1, "tid": 1, "name": "x"}
    with pytest.raises(ValueError, match="unknown ph"):
        validate_chrome_trace(write([{"ph": "Z", "ts": 0, **base}]))
    with pytest.raises(ValueError, match="expected int"):
        validate_chrome_trace(write([{"ph": "i", "ts": 0.5, **base}]))
    with pytest.raises(ValueError, match="monotone"):
        validate_chrome_trace(write([{"ph": "i", "ts": 5, **base},
                                     {"ph": "i", "ts": 4, **base}]))
    with pytest.raises(ValueError, match="never opened"):
        validate_chrome_trace(write([{"ph": "E", "ts": 0, **base}]))
    with pytest.raises(ValueError, match="unbalanced"):
        validate_chrome_trace(write([{"ph": "B", "ts": 0, **base}]))
    with pytest.raises(ValueError, match="unclosed async"):
        validate_chrome_trace(write(
            [{"ph": "b", "ts": 0, "cat": "t", "id": 1, **base}]))
    with pytest.raises(ValueError, match="missing traceEvents"):
        path = str(tmp_path / "notrace.json")
        open(path, "w").write("[]")
        validate_chrome_trace(path)


def test_export_series_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "SAMPLE_INTERVAL_S", 1.0)
    sim = Simulator()
    sampler = MetricsSampler(sim, {"clock": lambda: sim.now})
    sampler.start()
    sim.schedule(2.5, sim.stop)
    sim.run()
    path = str(tmp_path / "series.csv")
    rows = export_series_csv(sampler, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "metric,t_s,value"
    assert rows == len(lines) - 1 == 3
    assert lines[1].startswith("clock,0.0,")


# ----------------------------------------------------------------------
# End-to-end: traced Figure-6-style cell
# ----------------------------------------------------------------------
def traced_config(tmp_path, name, **overrides):
    base = dict(
        benchmark="tpcc", scheme="polaris", load_fraction=0.6, slack=10.0,
        trace_path=str(tmp_path / f"{name}.trace.json"),
        trace_series_path=str(tmp_path / f"{name}.series.csv"))
    return ExperimentConfig(**{**base, **FAST, **overrides})


def test_traced_fig6_cell_exports_expected_content(tmp_path):
    config = traced_config(tmp_path, "fig6")
    result = run_experiment(config)
    assert result.trace_events > 0
    stats = validate_chrome_trace(config.trace_path)
    events = json.loads(open(config.trace_path).read())["traceEvents"]
    names = {e["name"] for e in events}
    # Per-transaction spans (sync execution + async lifecycle).
    assert any(n.startswith("exec:") for n in names)
    assert any(n.startswith("txn:") for n in names)
    # P-state transitions annotated with the driving decision.
    transitions = [e for e in events if e["name"] == "pstate:transition"]
    assert transitions
    assert {"old_ghz", "new_ghz", "pstate"} <= set(transitions[0]["args"])
    decisions = [e for e in events if e["name"] == "setfreq:dispatch"]
    assert decisions
    assert {"selected_ghz", "floor_ghz", "queue_len"} \
        <= set(decisions[0]["args"])
    # Counter tracks: power + queue depth from the metrics sampler.
    counter_names = {e["name"] for e in events if e["ph"] == "C"}
    assert "power_watts" in counter_names
    assert "queue_depth_total" in counter_names
    assert any(n.startswith("queue_depth.w") for n in counter_names)
    assert any(n.startswith("freq_ghz.core") for n in counter_names)
    assert stats["phase_counts"]["b"] == stats["phase_counts"]["e"]
    # The series CSV landed too.
    csv_lines = open(config.trace_series_path).read().splitlines()
    assert csv_lines[0] == "metric,t_s,value"
    assert any(line.startswith("power_watts,") for line in csv_lines)


def test_traced_runs_are_byte_identical(tmp_path):
    a = traced_config(tmp_path, "a")
    b = traced_config(tmp_path, "b")
    run_experiment(a)
    run_experiment(b)
    assert open(a.trace_path, "rb").read() == open(b.trace_path, "rb").read()
    assert open(a.trace_series_path, "rb").read() == \
        open(b.trace_series_path, "rb").read()


def test_untraced_run_records_nothing(tmp_path):
    config = dataclasses.replace(traced_config(tmp_path, "x"),
                                 trace=False, trace_path=None,
                                 trace_series_path=None)
    result = run_experiment(config)
    assert result.trace_events == 0


def test_traced_governor_scheme_emits_governor_instants(tmp_path):
    config = traced_config(tmp_path, "ondemand", scheme="ondemand")
    run_experiment(config)
    events = json.loads(open(config.trace_path).read())["traceEvents"]
    samples = [e for e in events if e["name"] == "governor:ondemand"]
    assert samples
    assert {"utilization", "target_ghz", "up_threshold"} \
        <= set(samples[0]["args"])
    validate_chrome_trace(config.trace_path)


def test_traced_static_scheme_emits_pin_instant(tmp_path):
    config = traced_config(tmp_path, "static", scheme="static-2.8")
    run_experiment(config)
    events = json.loads(open(config.trace_path).read())["traceEvents"]
    pins = [e for e in events if e["name"].endswith(":pin")]
    assert pins and "pinned_ghz" in pins[0]["args"]


def test_trace_result_metrics_match_untraced(tmp_path):
    """Tracing is observation only: the paper's metrics are identical
    with and without it."""
    traced = run_experiment(traced_config(tmp_path, "t"))
    plain = run_experiment(dataclasses.replace(
        traced_config(tmp_path, "p"), trace=False, trace_path=None,
        trace_series_path=None))
    assert traced.avg_power_watts == plain.avg_power_watts
    assert traced.failure_rate == plain.failure_rate
    assert traced.completed == plain.completed
    assert traced.freq_residency == plain.freq_residency
