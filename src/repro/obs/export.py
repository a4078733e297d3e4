"""Exporters: Chrome trace-event JSON and CSV series.

``export_chrome_trace`` writes the ``{"traceEvents": [...]}`` object
format that both ``chrome://tracing`` and ``ui.perfetto.dev`` load
directly.  Output is canonicalised (sorted keys, no whitespace) so two
same-seed runs produce **byte-identical** files --- the property the
determinism tests and CI pin down.

``validate_chrome_trace`` is the structural checker CI runs against
the smoke trace: valid JSON, integer microsecond timestamps, monotone
``ts`` per (pid, tid) track, balanced B/E stacks, and matched async
b/e pairs per (cat, id).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.obs.metrics import MetricsSampler
from repro.obs.trace import Tracer

#: Phases understood by the validator (the subset the tracer emits).
_KNOWN_PHASES = frozenset({"B", "E", "X", "i", "I", "C", "b", "n", "e",
                           "M"})


def build_trace_events(tracer: Tracer) -> List[Dict[str, object]]:
    """The tracer's events as Chrome trace-event dicts.

    Prepends ``M`` metadata records naming each registered track's
    process and thread (what Perfetto shows in the left rail), then
    emits the recorded events in recording order --- which is virtual-
    time order, so every track's ``ts`` sequence is monotone.
    """
    out: List[Dict[str, object]] = []
    for track in tracer.tracks():
        out.append({"ph": "M", "pid": track.pid, "tid": track.tid,
                    "name": "process_name", "ts": 0,
                    "args": {"name": track.process}})
        out.append({"ph": "M", "pid": track.pid, "tid": track.tid,
                    "name": "thread_name", "ts": 0,
                    "args": {"name": track.thread}})
    for ev in tracer.events:
        rec: Dict[str, object] = {"ph": ev.ph, "ts": ev.ts_us,
                                  "pid": ev.pid, "tid": ev.tid,
                                  "name": ev.name}
        if ev.cat is not None:
            rec["cat"] = ev.cat
        if ev.scope_id is not None:
            rec["id"] = ev.scope_id
        if ev.ph == "i":
            rec["s"] = "t"  # thread-scoped instant
        if ev.args:
            rec["args"] = ev.args
        out.append(rec)
    return out


def export_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the canonical Perfetto-loadable JSON file.

    Returns the number of trace events written (metadata included).
    ``sort_keys`` + compact separators make the bytes a pure function
    of the event list, i.e. of ``(ExperimentConfig, seed)``.
    """
    events = build_trace_events(tracer)
    payload = {"displayTimeUnit": "ms", "traceEvents": events}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return len(events)


def export_series_csv(sampler: MetricsSampler, path: str) -> int:
    """Dump every sampled series as long-form CSV rows.

    Columns: ``metric,t_s,value``; metrics in name order, samples in
    time order.  Returns the number of data rows written.
    """
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,t_s,value\n")
        for name in sorted(sampler.series):
            for t_s, value in sampler.series[name]:
                fh.write(f"{name},{t_s!r},{value!r}\n")
                rows += 1
    return rows


def validate_chrome_trace(path: str) -> Dict[str, object]:
    """Structurally validate an exported trace file.

    Raises ``ValueError`` describing the first violation; on success
    returns a stats dict (event/track counts, span balance) the CI
    smoke step prints.  Checks:

    * the file parses as JSON with a ``traceEvents`` list;
    * every event has a known ``ph``, integer ``ts``/``pid``/``tid``;
    * per (pid, tid) track, ``ts`` never decreases;
    * per track, B/E nest correctly and the file ends balanced;
    * per (cat, id), async b/e pairs match and end closed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or \
            not isinstance(payload.get("traceEvents"), list):
        raise ValueError(f"{path}: missing traceEvents list")
    events = payload["traceEvents"]

    last_ts: Dict[Tuple[int, int], int] = {}
    open_spans: Dict[Tuple[int, int], int] = {}
    open_async: Dict[Tuple[str, object], int] = {}
    counts: Dict[str, int] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            raise ValueError(f"{path}: event {i} has unknown ph {ph!r}")
        counts[ph] = counts.get(ph, 0) + 1
        for field in ("ts", "pid", "tid"):
            if not isinstance(ev.get(field), int):
                raise ValueError(
                    f"{path}: event {i} ({ph}) field {field!r} is "
                    f"{ev.get(field)!r}, expected int")
        if ph == "M":
            continue  # metadata carries ts=0; not a timeline event
        key = (ev["pid"], ev["tid"])
        prev = last_ts.get(key)
        if prev is not None and ev["ts"] < prev:
            raise ValueError(
                f"{path}: event {i} ({ph} {ev.get('name')!r}) ts "
                f"{ev['ts']} < {prev} on track pid={key[0]} "
                f"tid={key[1]} --- per-track ts must be monotone")
        last_ts[key] = ev["ts"]
        if ph == "B":
            open_spans[key] = open_spans.get(key, 0) + 1
        elif ph == "E":
            depth = open_spans.get(key, 0)
            if depth == 0:
                raise ValueError(
                    f"{path}: event {i} E {ev.get('name')!r} closes a "
                    f"span that was never opened on pid={key[0]} "
                    f"tid={key[1]}")
            open_spans[key] = depth - 1
        elif ph in ("b", "n", "e"):
            akey = (ev.get("cat"), ev.get("id"))
            if akey[0] is None or akey[1] is None:
                raise ValueError(
                    f"{path}: event {i} async {ph} missing cat/id")
            if ph == "b":
                open_async[akey] = open_async.get(akey, 0) + 1
            elif ph == "e":
                depth = open_async.get(akey, 0)
                if depth == 0:
                    raise ValueError(
                        f"{path}: event {i} async e {ev.get('name')!r} "
                        f"closes {akey} which was never opened")
                open_async[akey] = depth - 1

    dangling = {k: d for k, d in open_spans.items() if d}
    if dangling:
        raise ValueError(f"{path}: unbalanced B/E spans on tracks "
                         f"{sorted(dangling)}")
    dangling_async = sorted(
        f"{cat}:{aid}" for (cat, aid), d in open_async.items() if d)
    if dangling_async:
        raise ValueError(f"{path}: unclosed async spans "
                         f"{dangling_async}")
    return {
        "events": len(events),
        "tracks": len(last_ts),
        "phase_counts": counts,
    }


__all__ = ["build_trace_events", "export_chrome_trace",
           "export_series_csv", "validate_chrome_trace"]
