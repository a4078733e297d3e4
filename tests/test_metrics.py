"""Power meter, latency recorder, report formatting."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import Request
from repro.core.workload import Workload
from repro.metrics.latency import LatencyRecorder, percentile
from repro.metrics.power import PowerMeter
from repro.metrics.report import (
    AVAILABILITY_SCHEMA_VERSION, availability_record, availability_table,
    format_series, format_table, sparkline,
)
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# PowerMeter
# ----------------------------------------------------------------------
def test_meter_samples_every_second(sim):
    meter = PowerMeter(sim, lambda: sim.now * 50.0, random.Random(0),
                       noise_fraction=0.0)
    meter.start()
    sim.schedule(5.5, sim.stop)
    sim.run()
    assert len(meter.samples) == 5
    assert [t for t, _ in meter.samples] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(w == pytest.approx(50.0) for _, w in meter.samples)


def test_meter_noise_within_rating(sim):
    meter = PowerMeter(sim, lambda: sim.now * 100.0,
                       rng=random.Random(1), noise_fraction=0.015)
    meter.start()
    sim.schedule(200.0, sim.stop)
    sim.run()
    readings = [w for _, w in meter.samples]
    assert all(98.5 - 1e-9 <= w <= 101.5 + 1e-9 for w in readings)
    assert max(readings) > 100.3  # noise actually applied
    assert min(readings) < 99.7


def test_meter_average_over_window(sim):
    # 10 W for 2 s, then 30 W.
    meter = PowerMeter(sim, lambda: 10.0 * min(sim.now, 2.0)
                       + 30.0 * max(0.0, sim.now - 2.0),
                       random.Random(0), noise_fraction=0.0)
    meter.start()
    sim.schedule(4.5, sim.stop)
    sim.run()
    assert meter.average_power(0.0, 2.0) == pytest.approx(10.0)
    assert meter.average_power(2.0, 4.0) == pytest.approx(30.0)
    assert meter.average_power() == pytest.approx(20.0)


def test_meter_average_empty_window_raises(sim):
    meter = PowerMeter(sim, lambda: 0.0, random.Random(0))
    with pytest.raises(ValueError):
        meter.average_power()


def test_meter_binned_average(sim):
    meter = PowerMeter(sim, lambda: 10.0 * sim.now, random.Random(0),
                       noise_fraction=0.0)
    meter.start()
    sim.schedule(10.0, sim.stop)
    sim.run()
    bins = meter.binned_average(0.0, 10.0, 5.0)
    assert len(bins) == 2
    assert bins[0][1] == pytest.approx(10.0)


def test_meter_requires_explicit_rng(sim):
    with pytest.raises(TypeError):
        PowerMeter(sim, lambda: 0.0, None)
    with pytest.raises(TypeError):
        PowerMeter(sim, lambda: 0.0)


def test_meter_stop_and_validation(sim):
    meter = PowerMeter(sim, lambda: 0.0, random.Random(0))
    meter.start()
    with pytest.raises(RuntimeError):
        meter.start()
    meter.stop()
    sim.schedule(5.0, sim.stop)
    sim.run()
    assert meter.samples == []
    with pytest.raises(ValueError):
        PowerMeter(sim, lambda: 0.0, random.Random(0), interval=0.0)
    with pytest.raises(ValueError):
        PowerMeter(sim, lambda: 0.0, random.Random(0),
                   noise_fraction=-0.1)


# ----------------------------------------------------------------------
# LatencyRecorder
# ----------------------------------------------------------------------
def finished_request(workload, arrival, latency, exec_time=None,
                     freq=2.8, txn_type="t"):
    request = Request(workload, txn_type, arrival, work=1.0)
    request.dispatch_time = arrival + latency - (exec_time or latency)
    request.finish_time = arrival + latency
    request.dispatch_freq = freq
    return request


def test_recorder_failure_rates():
    workload = Workload("w", 0.010)
    recorder = LatencyRecorder()
    recorder.recording = True
    recorder.on_completion(finished_request(workload, 0.0, 0.005))
    recorder.on_completion(finished_request(workload, 0.0, 0.020))  # miss
    assert recorder.total_offered == 2
    assert recorder.total_missed == 1
    assert recorder.failure_rate == 0.5
    assert recorder.workload_failure_rate("w") == 0.5
    assert recorder.workload_failure_rate("other") == 0.0
    assert list(recorder.per_workload) == ["w"]


def test_recorder_ignores_when_not_recording():
    recorder = LatencyRecorder()
    recorder.on_completion(finished_request(Workload("w", 1.0), 0.0, 0.5))
    assert recorder.total_offered == 0
    assert recorder.failure_rate == 0.0


def test_recorder_window_scopes_by_arrival():
    workload = Workload("w", 0.010)
    recorder = LatencyRecorder()
    recorder.set_window(1.0, 2.0)
    recorder.on_completion(finished_request(workload, 0.5, 0.005))  # early
    recorder.on_completion(finished_request(workload, 1.5, 0.005))  # in
    recorder.on_completion(finished_request(workload, 2.5, 0.005))  # late
    assert recorder.total_offered == 1
    # Late completion of an in-window arrival still counts.
    recorder.on_completion(finished_request(workload, 1.9, 5.0))
    assert recorder.total_offered == 2
    assert recorder.total_missed == 1


def test_recorder_window_validation():
    with pytest.raises(ValueError):
        LatencyRecorder().set_window(2.0, 1.0)


def test_recorder_exec_time_stats():
    workload = Workload("w", 10.0)
    recorder = LatencyRecorder()
    recorder.recording = True
    for exec_time, freq in [(1.0, 2.8), (2.0, 2.8), (3.0, 1.2)]:
        recorder.on_completion(finished_request(
            workload, 0.0, exec_time, exec_time=exec_time, freq=freq,
            txn_type="a"))
    mean, p95, count = recorder.exec_time_stats("a", 2.8)
    assert (mean, count) == (1.5, 2)
    assert p95 == 2.0
    mean_all, _, count_all = recorder.exec_time_stats("a")
    assert (mean_all, count_all) == (2.0, 3)
    mean_combined, _, n = recorder.combined_exec_time_stats(2.8)
    assert (mean_combined, n) == (1.5, 2)
    nan_mean, _, zero = recorder.exec_time_stats("missing")
    assert zero == 0


def test_recorder_mean_latency():
    workload = Workload("w", 10.0)
    recorder = LatencyRecorder()
    recorder.recording = True
    recorder.on_completion(finished_request(workload, 0.0, 1.0))
    recorder.on_completion(finished_request(workload, 0.0, 3.0))
    assert recorder.per_workload["w"].mean_latency() == pytest.approx(2.0)


_instant = st.floats(min_value=0.0, max_value=10.0)
_span = st.floats(min_value=1e-6, max_value=1.0)
#: (outcome, arrival, latency): how each offered request ended.
_outcomes = st.lists(st.tuples(
    st.sampled_from(["completed", "rejected", "lost"]), _instant, _span),
    max_size=40)


def _fed(outcomes, target):
    """A recorder fed ``outcomes``, every request carrying ``target``."""
    workload = Workload("w", target)
    recorder = LatencyRecorder()
    recorder.recording = True
    for outcome, arrival, latency in outcomes:
        request = finished_request(workload, arrival, latency)
        {"completed": recorder.on_completion,
         "rejected": recorder.on_rejection,
         "lost": recorder.on_lost}[outcome](request)
    return recorder


@settings(max_examples=150, deadline=None)
@given(outcomes=_outcomes, live_target=_span,
       targets=st.lists(_span, min_size=1, max_size=4))
def test_missed_under_equals_the_live_count(outcomes, live_target, targets):
    """Scoring kept instants against a target afterwards counts what
    the live test would have counted under that target, and keeping
    instants instead of latencies changes no latency statistic."""
    recorder = _fed(outcomes, live_target)
    stats = recorder.per_workload.get("w")
    if stats is None:
        assert not outcomes
        return
    completed = [(arrival, latency) for outcome, arrival, latency
                 in outcomes if outcome == "completed"]
    assert stats.latencies == [(arrival + latency) - arrival
                               for arrival, latency in completed]
    if completed:
        assert stats.mean_latency() \
            == sum(stats.latencies) / len(completed)
    # Targets that sit exactly on a latency included: there the
    # comparison is decided in the last bit of ``arrival + target``.
    for target in targets + [latency for _, latency in completed[:3]]:
        assert stats.missed_under(target) \
            == _fed(outcomes, target).total_missed
    assert stats.missed_under(live_target) == stats.missed


def test_missed_under_needs_the_kept_instants():
    workload = Workload("w", 0.010)
    recorder = LatencyRecorder(keep_latencies=False)
    recorder.recording = True
    recorder.on_completion(finished_request(workload, 0.0, 0.020))
    assert recorder.total_missed == 1
    with pytest.raises(ValueError, match="kept no completion instants"):
        recorder.per_workload["w"].missed_under(0.010)


def test_percentile_function():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([1.0], 95) == 1.0
    assert percentile(list(map(float, range(1, 101))), 95) == 95.0
    with pytest.raises(ValueError):
        percentile([], 95)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_table_row_width_checked():
    with pytest.raises(ValueError, match="row width 2 != header width 1"):
        format_table(["a"], [[1, 2]])
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1, 2], [3]])


def test_format_table_empty_rows_renders_header_only():
    text = format_table(["name", "value"], [])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("name") and "value" in lines[0]
    assert set(lines[1]) <= {"-", " "}


def test_format_table_title_rendering():
    titled = format_table(["a"], [[1]], title="Trace summary")
    assert titled.splitlines()[0] == "Trace summary"
    untitled = format_table(["a"], [[1]])
    assert untitled.splitlines()[0].startswith("a")
    assert titled.splitlines()[1:] == untitled.splitlines()


def test_format_series():
    text = format_series("s", [10, 20], [0.1, 0.25], "{:.2f}")
    assert text == "s: 10=0.10 20=0.25"
    with pytest.raises(ValueError):
        format_series("s", [1], [1.0, 2.0])


def test_sparkline():
    assert sparkline([]) == ""
    line = sparkline([0.0, 0.5, 1.0], width=3)
    assert len(line) == 3
    assert line[0] == " " and line[-1] == "@"
    long = sparkline(list(range(100)), width=10)
    assert len(long) == 10


# ----------------------------------------------------------------------
# Availability records (the versioned chaos/failover schema)
# ----------------------------------------------------------------------
class _StubConfig:
    seed = 11


class _StubResult:
    """Duck-typed stand-in for an ExperimentResult chaos cell."""

    config = _StubConfig()
    scheme_label = "fleet-elastic POLARIS"
    availability = {"shard1": 0.95, "shard0": 0.97}
    failovers = 2
    mttr_s = 0.43
    lost_commits = 6
    unserved_shards = 0
    p999_latency_s = 0.353
    avg_power_watts = 218.3
    failure_rate = 0.014
    lost = 2


def test_availability_record_schema():
    record = availability_record(_StubResult())
    assert record["schema"] == AVAILABILITY_SCHEMA_VERSION
    assert record["label"] == "fleet-elastic POLARIS"
    assert record["seed"] == 11
    assert record["availability_min"] == 0.95
    # Shard keys come out sorted for stable serialization.
    assert list(record["availability_by_shard"]) == ["shard0", "shard1"]
    json.dumps(record)  # the record must be JSON-serializable as-is


def test_availability_record_with_no_shards_is_fully_available():
    stub = _StubResult()
    stub.availability = {}
    assert availability_record(stub)["availability_min"] == 1.0


def test_availability_table_renders_the_records():
    text = availability_table([availability_record(_StubResult())])
    assert "Availability under chaos" in text
    assert "fleet-elastic POLARIS" in text
    assert "0.9500" in text  # avail(min)
    assert "218.3" in text
