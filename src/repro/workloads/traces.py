"""Time-varying load traces (the World Cup experiment, Section 6.4).

The paper modulates the TPC-C target request rate once per second
following the *normalized* request rate of the 1998 World Cup web trace
(Arlitt & Jin), sweeping between 30% and 90% of the server's peak
throughput over a roughly 300-second window.

The original trace files are not redistributable, so
:func:`synthesize_worldcup_trace` generates a normalized per-second
series with the same qualitative structure seen in the paper's
Figure 10(a): long multi-minute swells and troughs (match start/end
audience movements) overlaid with second-scale jitter and occasional
short bursts.  A user with the real trace can load it with
:func:`load_trace` and obtain identical treatment.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Sequence


def synthesize_worldcup_trace(duration_seconds: int = 300,
                              rng: random.Random = None,
                              seed: int = 1998) -> List[float]:
    """Normalized (0..1) per-second request-rate series.

    Structure: a baseline of two slow sinusoidal swells with different
    periods (so peaks and troughs drift like the paper's timeline),
    plus white jitter and a few short bursts, clamped to [0, 1].
    """
    if duration_seconds < 1:
        raise ValueError("duration must be at least one second")
    if rng is None:
        rng = random.Random(seed)

    # Random phase offsets make each seed a different "day" of the trace.
    phase_a = rng.uniform(0.0, 2.0 * math.pi)
    phase_b = rng.uniform(0.0, 2.0 * math.pi)
    period_a = rng.uniform(110.0, 150.0)   # main swell, ~2 minutes
    period_b = rng.uniform(40.0, 70.0)     # secondary ripple

    # A handful of bursts (kickoff/goal moments) of 5-15 s.
    bursts = []
    for _ in range(max(1, duration_seconds // 90)):
        start = rng.uniform(0, duration_seconds)
        bursts.append((start, start + rng.uniform(5.0, 15.0),
                       rng.uniform(0.2, 0.45)))

    series: List[float] = []
    for t in range(duration_seconds):
        base = 0.5 \
            + 0.32 * math.sin(2.0 * math.pi * t / period_a + phase_a) \
            + 0.14 * math.sin(2.0 * math.pi * t / period_b + phase_b)
        for start, end, lift in bursts:
            if start <= t < end:
                base += lift
        base += rng.gauss(0.0, 0.035)
        series.append(min(1.0, max(0.0, base)))
    return series


def synthesize_diurnal_trace(duration_seconds: int = 300,
                             rng: random.Random = None,
                             seed: int = 2026,
                             peak_rate_scale: float = 1.0) -> List[float]:
    """Per-second request-*rate* series (requests/s) over one synthetic day.

    The fleet experiments (ROADMAP: "a production-scale system serving
    millions of users") need a day-shaped load curve rather than the
    World Cup trace's match-driven swells.  One diurnal cycle --- night
    trough, morning ramp, midday plateau, evening peak, late-night
    fall-off --- is compressed into ``duration_seconds``, overlaid with
    per-second jitter and a few short flash crowds.

    Unlike :func:`synthesize_worldcup_trace` this returns *absolute*
    rates, with the unscaled series peaking near 1 request/s.
    ``peak_rate_scale`` is the fleet tier's "1000x knob": it multiplies
    the whole series uniformly, so a scale of 1000 models a thousand
    users behind every unscaled one.  Because every random draw happens
    before the scale is applied, the normalized *shape* is invariant
    under scaling (``normalize`` of a scaled series equals the unscaled
    one to float rounding) and same-seed series are deterministic ---
    experiments driven by the normalized trace are unchanged while
    reported absolute rates scale.
    """
    if duration_seconds < 1:
        raise ValueError("duration must be at least one second")
    if peak_rate_scale <= 0:
        raise ValueError("peak_rate_scale must be positive")
    if rng is None:
        rng = random.Random(seed)

    # Seeded day-to-day variation: where the commute ramp and evening
    # peak land, and how hard each pushes.
    morning_centre = rng.uniform(0.30, 0.40)
    morning_height = rng.uniform(0.40, 0.55)
    evening_centre = rng.uniform(0.72, 0.82)
    evening_height = rng.uniform(0.75, 0.95)
    ripple_phase = rng.uniform(0.0, 2.0 * math.pi)

    # A few flash crowds (launches, pushes) of 3-10 s.
    bursts = []
    for _ in range(max(1, duration_seconds // 120)):
        start = rng.uniform(0.15 * duration_seconds, duration_seconds)
        bursts.append((start, start + rng.uniform(3.0, 10.0),
                       rng.uniform(0.10, 0.25)))

    series: List[float] = []
    for t in range(duration_seconds):
        x = t / duration_seconds  # fraction of the compressed day
        value = 0.08  # night trough floor
        value += morning_height * math.exp(-((x - morning_centre) / 0.13) ** 2)
        value += evening_height * math.exp(-((x - evening_centre) / 0.10) ** 2)
        value += 0.03 * math.sin(6.0 * math.pi * x + ripple_phase)
        for start, end, lift in bursts:
            if start <= t < end:
                value += lift
        value += rng.gauss(0.0, 0.02)
        series.append(max(0.02, value) * peak_rate_scale)
    return series


def load_trace(lines: Iterable[str]) -> List[float]:
    """Parse a one-number-per-line request-count trace and normalize it.

    Blank lines and ``#`` comments are ignored.  The result is scaled to
    [0, 1] by the observed min/max, matching how the paper normalizes
    the World Cup counts before mapping them onto its load range.
    A line that is not a finite, non-negative number is rejected by its
    1-based line number.
    """
    counts: List[float] = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            count = float(text)
        except ValueError:
            count = math.nan
        if not 0.0 <= count < math.inf:
            raise ValueError(
                f"trace line {number}: expected a finite, non-negative "
                f"request count, got {text!r}")
        counts.append(count)
    if not counts:
        raise ValueError("trace contains no samples")
    return normalize(counts)


def normalize(values: Sequence[float]) -> List[float]:
    """Scale a series to [0, 1] by its min/max (constant series -> 0.5)."""
    low, high = min(values), max(values)
    if high <= low:
        return [0.5] * len(values)
    span = high - low
    return [(v - low) / span for v in values]
