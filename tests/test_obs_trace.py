"""repro.obs.trace: enable hook, track registry, recording, finalize."""

import pytest

from repro.obs.trace import (
    NULL_TRACER, NULL_TRACK, TRACE_ENV, Tracer, resolve_tracer,
    to_trace_us, trace_enabled,
)


# ----------------------------------------------------------------------
# Enable hook (the simsan contract)
# ----------------------------------------------------------------------
def test_trace_enabled_override_wins(monkeypatch):
    monkeypatch.setenv(TRACE_ENV, "1")
    assert trace_enabled(False) is False
    monkeypatch.delenv(TRACE_ENV)
    assert trace_enabled(True) is True


def test_trace_enabled_env_values(monkeypatch):
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv(TRACE_ENV, value)
        assert trace_enabled() is True
    for value in ("", "0", "false", "off", "banana"):
        monkeypatch.setenv(TRACE_ENV, value)
        assert trace_enabled() is False
    monkeypatch.delenv(TRACE_ENV)
    assert trace_enabled() is False


def test_resolve_tracer(monkeypatch):
    monkeypatch.delenv(TRACE_ENV, raising=False)
    assert resolve_tracer() is NULL_TRACER
    monkeypatch.setenv(TRACE_ENV, "1")
    resolved = resolve_tracer()
    assert resolved.enabled and resolved is not NULL_TRACER
    explicit = Tracer()
    assert resolve_tracer(explicit) is explicit


def test_to_trace_us_is_integer_microseconds():
    assert to_trace_us(0.0) == 0
    assert to_trace_us(1.5) == 1_500_000
    assert to_trace_us(1e-6) == 1
    assert isinstance(to_trace_us(0.123456), int)


# ----------------------------------------------------------------------
# Track registry
# ----------------------------------------------------------------------
def test_tracks_are_deduplicated_and_registration_ordered():
    tracer = Tracer()
    a = tracer.track("cpu", "core-0")
    b = tracer.track("cpu", "core-1")
    c = tracer.track("server", "worker-0")
    assert tracer.track("cpu", "core-0") == a == (1, 1)
    assert b == (1, 2)
    assert c == (2, 1)
    assert list(tracer.tracks.items()) == [
        (("cpu", "core-0"), a), (("cpu", "core-1"), b),
        (("server", "worker-0"), c)]


def test_disabled_tracer_returns_null_track_and_records_nothing():
    tracer = Tracer(enabled=False)
    track = tracer.track("cpu", "core-0")
    assert track == NULL_TRACK == (0, 0)
    tracer.begin(track, "x", 0.0)
    tracer.end(track, 1.0)
    tracer.instant(track, "x", 0.5)
    tracer.counter(track, "c", 0.5, value=1.0)
    tracer.async_begin("txn", 1, "x", 0.0)
    tracer.async_end("txn", 1, "x", 1.0)
    assert tracer.events == []
    assert tracer.tracks == {}
    assert tracer.finalize(2.0) == 0


def test_engine_touches_the_tracer_at_run_boundaries_only(monkeypatch):
    """Tracing costs the event loop nothing per event, by structure:
    disabled, no ``Tracer.instant`` call fires; enabled, exactly two per
    ``run()`` (begin + end) whatever the tick count."""
    from repro.sim.engine import Simulator

    calls = []
    original = Tracer.instant

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Tracer, "instant", counting)

    def run_ticks(tracer, ticks):
        sim = Simulator(tracer=tracer)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < ticks:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert run_ticks(NULL_TRACER, 10000) == 10000
    assert calls == [] and len(NULL_TRACER.events) == 0
    enabled = Tracer()
    run_ticks(enabled, 100)
    assert len(calls) == 2
    run_ticks(enabled, 10000)
    assert len(calls) == 4


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def test_span_recording_and_stack():
    tracer = Tracer()
    track = tracer.track("server", "worker-0")
    tracer.begin(track, "exec:payment", 1.0, freq_ghz=2.8)
    tracer.end(track, 2.0, met_deadline=True)
    assert tracer.events == [
        {"ph": "B", "ts": 1_000_000, "pid": 1, "tid": 1,
         "name": "exec:payment", "args": {"freq_ghz": 2.8}},
        {"ph": "E", "ts": 2_000_000, "pid": 1, "tid": 1,
         "name": "exec:payment", "args": {"met_deadline": True}}]


def test_instant_and_counter_records():
    """An instant is thread-scoped; a record without arguments carries
    no ``args`` key."""
    tracer = Tracer()
    track = tracer.track("cpu", "core-0")
    tracer.instant(track, "pstate:transition", 0.25)
    tracer.counter(track, "freq_ghz", 0.5, freq_ghz=2.8)
    assert tracer.events == [
        {"ph": "i", "ts": 250_000, "pid": 1, "tid": 1,
         "name": "pstate:transition", "s": "t"},
        {"ph": "C", "ts": 500_000, "pid": 1, "tid": 1, "name": "freq_ghz",
         "args": {"freq_ghz": 2.8}}]


def test_async_ids_are_dense_and_run_local():
    """Trace async ids must not depend on process-global counters
    (Request ids keep counting across runs in one process); keys map to
    dense local ids in first-touch order."""
    tracer = Tracer()
    assert tracer.async_id(1000) == 1
    assert tracer.async_id(7) == 2
    assert tracer.async_id(1000) == 1
    fresh = Tracer()
    assert fresh.async_id(999999) == 1


def test_async_span_lifecycle():
    tracer = Tracer()
    tracer.async_begin("txn", "r1", "txn:payment", 0.0, worker=0)
    tracer.async_instant("txn", "r1", "txn:dispatch", 0.5)
    tracer.async_end("txn", "r1", "txn:payment", 1.0, met_deadline=True)
    phases = [e["ph"] for e in tracer.events]
    assert phases == ["b", "n", "e"]
    assert all(e["cat"] == "txn" and e["id"] == 1 for e in tracer.events)
    # The async track is the category's own (process, thread) pair.
    assert tracer.tracks == {("txn", "txn"): (1, 1)}
    assert tracer.events[0]["args"] == {"worker": 0}
    assert "args" not in tracer.events[1]


def test_finalize_closes_dangling_spans():
    tracer = Tracer()
    track = tracer.track("server", "worker-0")
    tracer.begin(track, "exec:a", 1.0)
    tracer.begin(track, "exec:b", 2.0)
    tracer.async_begin("txn", "r1", "txn:a", 0.5)
    closed = tracer.finalize(5.0)
    assert closed == 3
    tail = tracer.events[-3:]
    assert [(e["ph"], e["name"]) for e in tail] == [
        ("E", "exec:b"), ("E", "exec:a"), ("e", "txn:a")]
    assert all(e["ts"] == 5_000_000 for e in tail)
    assert all(e["args"] == {"truncated": True} for e in tail)
    assert (tail[2]["cat"], tail[2]["id"]) == ("txn", 1)
    # Idempotent: nothing left to close.
    assert tracer.finalize(6.0) == 0


def test_end_without_begin_still_records():
    tracer = Tracer()
    track = tracer.track("p", "t")
    tracer.end(track, 1.0)
    assert tracer.events[0]["ph"] == "E"
    assert tracer.events[0]["name"] == "span"


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_recording_sequence_gives_identical_events():
    def record():
        tracer = Tracer()
        for i in range(3):
            track = tracer.track("cpu", f"core-{i}")
            tracer.instant(track, "pstate:transition", 0.1 * i,
                           old_ghz=1.2, new_ghz=2.8)
            tracer.counter(track, "freq_ghz", 0.1 * i, freq_ghz=2.8)
        return tracer.events

    assert record() == record()
