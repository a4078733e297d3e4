"""Power meter, latency recorder, report formatting."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import Request
from repro.core.workload import Workload
from repro.metrics import latency, power
from repro.metrics.latency import (
    LatencyRecorder, percentile, pooled_exec_time_stats,
)
from repro.metrics.power import PowerMeter
from repro.metrics.report import (
    AVAILABILITY_SCHEMA_VERSION, availability_record, availability_table,
    format_series, format_table, sparkline,
)
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# PowerMeter
# ----------------------------------------------------------------------
@pytest.fixture
def noiseless(monkeypatch):
    """Meter readings equal to the true draw."""
    monkeypatch.setattr(power, "METER_NOISE_FRACTION", 0.0)


def test_meter_samples_every_second(sim, noiseless):
    meter = PowerMeter(sim, lambda: sim.now * 50.0, random.Random(0))
    meter.start()
    sim.schedule(5.5, sim.stop)
    sim.run()
    assert len(meter.samples) == 5
    assert [t for t, _ in meter.samples] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(w == pytest.approx(50.0) for _, w in meter.samples)


def test_meter_noise_within_rating(sim):
    meter = PowerMeter(sim, lambda: sim.now * 100.0, rng=random.Random(1))
    meter.start()
    sim.schedule(200.0, sim.stop)
    sim.run()
    readings = [w for _, w in meter.samples]
    assert all(98.5 - 1e-9 <= w <= 101.5 + 1e-9 for w in readings)
    assert max(readings) > 100.3  # noise actually applied
    assert min(readings) < 99.7


def test_meter_average_over_window(sim, noiseless):
    # 10 W for 2 s, then 30 W.
    meter = PowerMeter(sim, lambda: 10.0 * min(sim.now, 2.0)
                       + 30.0 * max(0.0, sim.now - 2.0),
                       random.Random(0))
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


def test_meter_binned_average(sim, noiseless):
    meter = PowerMeter(sim, lambda: 10.0 * sim.now, random.Random(0))
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
    recorder.set_window(0.0, math.inf)
    recorder.on_completion(finished_request(workload, 0.0, 0.005))
    recorder.on_completion(finished_request(workload, 0.0, 0.020))  # miss
    assert recorder.total_offered == 2
    assert recorder.total_missed == 1
    assert recorder.failure_rate == 0.5
    assert recorder.workload_failure_rate("w") == 0.5
    assert recorder.workload_failure_rate("other") == 0.0
    assert list(recorder.per_workload) == ["w"]


def test_recorder_ignores_when_not_recording():
    """A recorder with no window counts nothing."""
    recorder = LatencyRecorder()
    request = finished_request(Workload("w", 1.0), 0.0, 0.5)
    recorder.on_completion(request)
    recorder.on_rejection(request)
    recorder.on_lost(request)
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
    recorder.set_window(0.0, math.inf)
    for exec_time, freq in [(1.0, 2.8), (2.0, 2.8), (3.0, 1.2)]:
        recorder.on_completion(finished_request(
            workload, 0.0, exec_time, exec_time=exec_time, freq=freq,
            txn_type="a"))
    times = recorder.exec_times_by_pair()
    mean, p95, count = pooled_exec_time_stats(times, 2.8, "a")
    assert (mean, count) == (1.5, 2)
    assert p95 == 2.0
    mean_all, _, count_all = pooled_exec_time_stats(times, txn_type="a")
    assert (mean_all, count_all) == (2.0, 3)
    mean_combined, _, n = pooled_exec_time_stats(times, 2.8)
    assert (mean_combined, n) == (1.5, 2)
    nan_mean, _, zero = pooled_exec_time_stats(times, txn_type="missing")
    assert zero == 0


def test_recorder_mean_latency():
    workload = Workload("w", 10.0)
    recorder = LatencyRecorder()
    recorder.set_window(0.0, math.inf)
    recorder.on_completion(finished_request(workload, 0.0, 1.0))
    recorder.on_completion(finished_request(workload, 0.0, 3.0))
    assert recorder.mean_latency_by_workload() == {"w": pytest.approx(2.0)}


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
    recorder.set_window(0.0, math.inf)
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
    latencies = recorder.latencies_by_workload().get("w", [])
    assert latencies == [(arrival + latency) - arrival
                         for arrival, latency in completed]
    if completed:
        assert recorder.mean_latency_by_workload()["w"] \
            == sum(latencies) / len(completed)
    # Targets that sit exactly on a latency included: there the
    # comparison is decided in the last bit of ``arrival + target``.
    for target in targets + [latency for _, latency in completed[:3]]:
        assert recorder.missed_under({"w": target}) \
            == {"w": _fed(outcomes, target).total_missed}
    assert recorder.missed_under({"w": live_target}) == {"w": stats.missed}


#: Latency targets of the oracle's workloads.
_TARGETS = {"gold": 0.05, "silver": 0.2, "bronze": 0.6}
#: (outcome, workload, txn type, dispatch GHz, site, arrival, latency,
#: share of the latency spent executing).
_rows = st.lists(st.tuples(
    st.sampled_from(["completed"] * 4 + ["rejected", "lost"]),
    st.sampled_from(sorted(_TARGETS)), st.sampled_from(["pay", "order"]),
    st.sampled_from([1.2, 2.8]), st.integers(0, 2),
    st.floats(min_value=0.0, max_value=4.0), _span,
    st.floats(min_value=0.01, max_value=1.0)), max_size=80)


def _stats_tuple(stats):
    return (stats.offered, stats.completed, stats.missed, stats.rejected,
            stats.lost)


@settings(max_examples=200, deadline=None)
@given(rows=_rows, rescore=st.lists(_span, min_size=3, max_size=3),
       chunk_rows=st.sampled_from([1, 7, latency.CHUNK_ROWS]))
def test_log_views_match_a_dict_of_lists_oracle(rows, rescore, chunk_rows):
    """Every view over the log equals the same read of plain per-group
    lists kept while feeding it: same operands, same summation order,
    so floats compare with ``==``.  Small chunks put rows of one view
    in many chunks."""
    saved, latency.CHUNK_ROWS = latency.CHUNK_ROWS, chunk_rows
    try:
        _check_log_views(rows, rescore)
    finally:
        latency.CHUNK_ROWS = saved


def _check_log_views(rows, rescore):
    workloads = {name: Workload(name, target)
                 for name, target in _TARGETS.items()}
    recorder = LatencyRecorder()
    recorder.set_window(0.5, 3.5)
    # The oracle: one list per group, filled in feeding order.
    outcomes, instants, exec_times, sites = {}, {}, {}, {}
    for outcome, name, txn, freq, site, arrival, latency, share in rows:
        request = Request(workloads[name], txn, arrival, work=1.0)
        if outcome == "rejected":
            recorder.on_rejection(request, site)
        elif outcome == "lost":
            request.dispatch_freq = freq
            recorder.on_lost(request, site)
        else:
            request.dispatch_time = arrival + latency - latency * share
            request.finish_time = arrival + latency
            request.dispatch_freq = freq
            recorder.on_completion(request, site)
        if not 0.5 <= arrival < 3.5:
            continue
        if outcome == "completed":
            finish = request.finish_time
            outcome = ("completed-late"
                       if not finish <= request.deadline + 1e-12
                       else "completed")
            instants.setdefault(name, []).append((arrival, finish))
            exec_times.setdefault((txn, freq), []).append(
                finish - request.dispatch_time)
        outcomes.setdefault(name, []).append(outcome)
        sites.setdefault(site, []).append(outcome)

    def tally(kinds):
        return (len(kinds),
                sum(kind.startswith("completed") for kind in kinds),
                sum(kind != "completed" for kind in kinds),
                kinds.count("rejected"), kinds.count("lost"))

    per_workload = recorder.per_workload
    assert list(per_workload) == list(outcomes)
    assert {name: _stats_tuple(stats)
            for name, stats in per_workload.items()} \
        == {name: tally(kinds) for name, kinds in outcomes.items()}
    every = [kind for kinds in outcomes.values() for kind in kinds]
    assert (recorder.total_offered, recorder.total_completed,
            recorder.total_missed, recorder.total_rejected,
            recorder.total_lost) == tally(every)
    books = recorder.site_books()
    assert list(books) == list(sites)
    assert {site: _stats_tuple(stats) for site, stats in books.items()} \
        == {site: tally(kinds) for site, kinds in sites.items()}

    latencies = {name: [finish - arrival for arrival, finish in pairs]
                 for name, pairs in instants.items()}
    assert recorder.latencies_by_workload() == {
        name: latencies[name] for name in outcomes if name in latencies}
    assert recorder.mean_latency_by_workload() == {
        name: sum(values) / len(values) for name, values
        in recorder.latencies_by_workload().items()}
    targets = dict(zip(sorted(_TARGETS), rescore))
    assert recorder.missed_under(targets) == {
        name: sum(not finish <= (arrival + targets[name]) + 1e-12
                  for arrival, finish in instants.get(name, []))
        + tally(kinds)[0] - tally(kinds)[1]
        for name, kinds in outcomes.items()}

    def stats(values):
        if not values:
            return (0,)
        return (sum(values) / len(values), percentile(values, 95),
                len(values))

    def matching(txn=None, freq=None):
        return [value for (name, at), values in exec_times.items()
                if txn in (None, name) and freq in (None, at)
                for value in values]

    def read(result):
        return result[2:] if result[2] == 0 else result

    times = recorder.exec_times_by_pair()
    for freq in (None, 1.2, 2.8):
        for txn in ("pay", "order"):
            assert read(pooled_exec_time_stats(times, freq, txn)) \
                == stats(matching(txn, freq))
        assert read(pooled_exec_time_stats(times, freq)) \
            == stats(matching(freq=freq))


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
    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] == " " and line[-1] == "@"
    long = sparkline(list(range(100)))
    assert len(long) == 60


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
