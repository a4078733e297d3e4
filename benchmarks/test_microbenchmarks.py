"""Timing bounds nothing else holds: what switching the sanitizer or
the tracer *on* costs the bare event loop.

That both are structurally free when *off* is proven by call counts in
tier-1 (``tests/test_simsan.py``, ``tests/test_obs_trace.py``), and the
hot kernels themselves (event loop, percentile observe,
``select_frequency``, EDF churn, a fleet cell) are timed,
host-normalised, by ``python -m bench``.
"""

from repro.harness.profiling import perf_clock
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import Simulator


def _best_pair(repeats, off, on):
    """Best wall times of a 10,000-event self-rescheduling chain built
    with the ``Simulator`` keywords ``off`` and with ``on``.  The two
    are timed in alternating repetitions, which of them goes first
    alternating too, so load on the host while one runs reaches the
    other as well."""
    def chain(simulator_kwargs):
        sim = Simulator(**simulator_kwargs)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10000:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert count[0] == 10000

    chain(off)  # warm
    chain(on)
    best = {"off": float("inf"), "on": float("inf")}
    for repeat in range(repeats):
        turns = (("off", off), ("on", on))
        for side, simulator_kwargs in turns[::1 if repeat % 2 else -1]:
            start = perf_clock()
            chain(simulator_kwargs)
            best[side] = min(best[side], perf_clock() - start)
    return best["off"], best["on"]


def test_simsan_on_overhead():
    """What running figures under ``REPRO_SIMSAN=1`` costs the event
    loop.  Per-event cost is one comparison; the O(heap) sweep runs once
    per run() and per compaction.  Generous bound: catches only a hook
    accidentally landing on the per-event path."""
    off, on = _best_pair(3, dict(sanitize=False, tracer=NULL_TRACER),
                         dict(sanitize=True, tracer=NULL_TRACER))
    assert on < off * 5, f"simsan on {on:.4f}s vs off {off:.4f}s"


def test_trace_overhead():
    """An enabled tracer adds two constant-time instants per run() and
    nothing per event.  Bounded generously against timer jitter --- the
    call-count test in tier-1 is the real guarantee."""
    off, on = _best_pair(5, dict(sanitize=False, tracer=NULL_TRACER),
                         dict(sanitize=False, tracer=Tracer()))
    assert on < off * 1.25, f"trace on {on:.4f}s vs off {off:.4f}s"
