"""Plain-text table and series rendering for bench output.

The benchmark harness prints the same rows/series the paper's tables
and figures report; these helpers keep that output aligned and
consistent across benches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table.

    Cells are stringified; floats are caller-formatted so each bench
    controls its precision.
    """
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells)).rstrip()

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    for row in str_rows:
        out.append(line(row))
    return "\n".join(out)


def format_series(label: str, xs: Sequence, ys: Sequence[float],
                  y_format: str = "{:.3f}") -> str:
    """One figure series as ``label: x=y`` pairs on a single line."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    pairs = " ".join(f"{x}={y_format.format(y)}" for x, y in zip(xs, ys))
    return f"{label}: {pairs}"


#: Schema version of :func:`availability_record`.  Bump only on
#: incompatible changes; consumers (e.g. a future
#: ``repro.analysis.healthcheck``) key on it to stay forward-safe.
AVAILABILITY_SCHEMA_VERSION = 1


def availability_record(result) -> Dict[str, object]:
    """One chaos/failover run as a flat, JSON-serializable record.

    ``result`` is an :class:`~repro.harness.experiment.ExperimentResult`
    (duck-typed to avoid importing the harness from the metrics tier).
    The record carries the availability figure's row --- MTTR, lost
    commits, unavailability, tail latency, power --- under a pinned
    ``schema`` version so downstream analysis can consume stored
    records without schema drift.
    """
    shard_availability = dict(sorted(result.availability.items()))
    return {
        "schema": AVAILABILITY_SCHEMA_VERSION,
        "label": result.scheme_label,
        "seed": result.config.seed,
        "failovers": result.failovers,
        "mttr_s": result.mttr_s,
        "lost_commits": result.lost_commits,
        "unserved_shards": result.unserved_shards,
        "availability_min": (min(shard_availability.values())
                             if shard_availability else 1.0),
        "availability_by_shard": shard_availability,
        "p999_latency_s": result.p999_latency_s,
        "avg_power_watts": result.avg_power_watts,
        "failure_rate": result.failure_rate,
        "lost_requests": result.lost,
    }


def availability_table(records: Sequence[Dict[str, object]]) -> str:
    """Render :func:`availability_record` rows as the availability
    figure's ASCII table."""
    headers = ("cell", "avail(min)", "MTTR s", "lost txns",
               "unserved", "p99.9 s", "power W")
    rows = [(r["label"], f"{r['availability_min']:.4f}",
             f"{r['mttr_s']:.3f}", r["lost_commits"],
             r["unserved_shards"], f"{r['p999_latency_s']:.3f}",
             f"{r['avg_power_watts']:.1f}") for r in records]
    return format_table(headers, rows, title="Availability under chaos")


def sparkline(values: Sequence[float]) -> str:
    """Compact ASCII sparkline, at most 60 glyphs (the trace figures'
    timelines)."""
    if not values:
        return ""
    glyphs = " .:-=+*#%@"
    low, high = min(values), max(values)
    span = high - low or 1.0
    # Downsample to 60 glyphs by bucket means.
    width = 60
    if len(values) > width:
        bucket = len(values) / width
        sampled = []
        for i in range(width):
            lo = int(i * bucket)
            hi = max(lo + 1, int((i + 1) * bucket))
            chunk = values[lo:hi]
            sampled.append(sum(chunk) / len(chunk))
    else:
        sampled = list(values)
    out = []
    for v in sampled:
        idx = int((v - low) / span * (len(glyphs) - 1))
        out.append(glyphs[idx])
    return "".join(out)
