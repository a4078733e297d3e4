"""Micro-benchmarks of the hot paths (true pytest-benchmark timing).

Not paper figures --- these keep the substrate honest: the simulator,
scheduler, estimator, and storage engine must be fast enough that the
figure benches run in minutes.
"""

import random
import time

from repro.core.estimator import (
    ExecutionTimeEstimator, ListSlidingWindowPercentile,
    SlidingWindowPercentile,
)
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.workload import Workload
from repro.db.storage.btree import BPlusTree
from repro.sim.engine import Simulator

FREQS = (1.2, 1.6, 2.0, 2.4, 2.8)


def test_bench_event_loop_throughput(benchmark):
    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10000:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 10000


def _event_loop_ticks(sanitize, ticks=10000):
    sim = Simulator(sanitize=sanitize)
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < ticks:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count[0]


def test_bench_simsan_off_is_noop(benchmark, monkeypatch):
    """With the sanitizer off, the hooks must be dead branches.

    Timing comparisons are noisy, so the no-op claim is proven
    deterministically: count sanitize_check invocations.  Zero with the
    sanitizer off, nonzero with it on --- the only disabled-mode cost
    left is one pre-resolved boolean test per event.
    """
    calls = []
    original = Simulator.sanitize_check

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Simulator, "sanitize_check", counting)
    assert benchmark(_event_loop_ticks, False) == 10000
    assert calls == []  # no hook ever fired while disabled
    _event_loop_ticks(True)
    assert calls  # and they do fire when enabled


def test_bench_simsan_on_overhead(benchmark):
    """The sanitizer's enabled overhead: what running figures under
    ``REPRO_SIMSAN=1`` costs the event loop."""
    from repro.harness.profiling import perf_clock

    def best_of(sanitize, repeats=3):
        _event_loop_ticks(sanitize)  # warm
        best = float("inf")
        for _ in range(repeats):
            start = perf_clock()
            _event_loop_ticks(sanitize)
            best = min(best, perf_clock() - start)
        return best

    off = best_of(False)
    on = best_of(True)
    assert benchmark(_event_loop_ticks, True) == 10000
    # Per-event cost is one comparison; the O(heap) sweep runs once per
    # run() and per compaction.  Generous bound: catches only a hook
    # accidentally landing on the per-event path.
    assert on < off * 5, f"simsan on {on:.4f}s vs off {off:.4f}s"


def _traced_event_loop_ticks(tracer, ticks=10000):
    sim = Simulator(tracer=tracer)
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < ticks:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count[0]


def test_bench_trace_off_is_noop(benchmark, monkeypatch):
    """Disabled tracing must cost the event loop nothing.

    Like the simsan bench, the claim is proven deterministically rather
    than by noisy timing: the engine only touches the tracer at run()
    boundaries, never per event.  Disabled, zero Tracer.instant calls
    fire; enabled, exactly two per run() (begin+end) regardless of tick
    count --- so the per-event overhead is not merely under the 1%
    budget, it is structurally zero.
    """
    from repro.obs.trace import NULL_TRACER, Tracer

    calls = []
    original = Tracer.instant

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Tracer, "instant", counting)
    assert _traced_event_loop_ticks(NULL_TRACER, ticks=10000) == 10000
    assert calls == []  # no hook ever fired while disabled
    assert len(NULL_TRACER.events) == 0  # and disabled records nothing

    enabled = Tracer()
    _traced_event_loop_ticks(enabled, ticks=100)
    first = len(calls)
    _traced_event_loop_ticks(enabled, ticks=10000)
    assert first == 2  # run:begin + run:end only
    assert len(calls) - first == 2  # constant per run(), not per event

    assert benchmark(_traced_event_loop_ticks, NULL_TRACER) == 10000


def test_bench_trace_overhead(benchmark, monkeypatch):
    """Measure disabled-tracing overhead on the event loop.  The
    acceptance bar is <=1%; the structural proof above guarantees it,
    the timing here checks it (with a noise allowance on the assert,
    since best-of wall timings on a ~10ms loop still jitter)."""
    from repro.harness.profiling import perf_clock
    from repro.obs.trace import NULL_TRACER, TRACE_ENV, Tracer

    monkeypatch.delenv(TRACE_ENV, raising=False)

    def best_of(tracer, repeats=5):
        _traced_event_loop_ticks(tracer)  # warm
        best = float("inf")
        for _ in range(repeats):
            start = perf_clock()
            _traced_event_loop_ticks(tracer)
            best = min(best, perf_clock() - start)
        return best

    plain = best_of(None)  # resolve_tracer(None) with REPRO_TRACE unset
    off = best_of(NULL_TRACER)
    on = best_of(Tracer())
    assert benchmark(_traced_event_loop_ticks, NULL_TRACER) == 10000
    # off and plain run byte-identical code; on adds two constant-time
    # instants per run().  Bound generously against timer jitter --- the
    # deterministic no-op test is the real <=1% guarantee.
    assert off < plain * 1.25, f"trace off {off:.4f}s vs plain {plain:.4f}s"
    assert on < plain * 1.25, f"trace on {on:.4f}s vs plain {plain:.4f}s"


def test_bench_percentile_tracker_observe(benchmark):
    tracker = SlidingWindowPercentile(window=1000, percentile=95)
    rng = random.Random(0)
    values = [rng.lognormvariate(0, 0.8) for _ in range(5000)]

    def run():
        for v in values:
            tracker.observe(v)
        return tracker.value()

    assert benchmark(run) > 0


def test_bench_percentile_tracker_observe_value_mix(benchmark):
    """The estimator's real duty cycle: the scheduler calls estimate()
    (= value()) several times per observe() while picking a frequency.
    The chunked tracker with its memoized value() must beat — and must
    never fall meaningfully behind — the plain-list implementation it
    replaced at the paper's S=1000 window."""
    rng = random.Random(0)
    values = [rng.lognormvariate(0, 0.8) for _ in range(4000)]

    def mixed(tracker):
        total = 0.0
        for v in values:
            tracker.observe(v)
            for _ in range(5):
                total += tracker.value()
        return total

    def timed(factory):
        tracker = factory(window=1000, percentile=95)
        mixed(tracker)  # warm
        best = float("inf")
        for _ in range(3):
            tracker = factory(window=1000, percentile=95)
            start = time.perf_counter()
            mixed(tracker)
            best = min(best, time.perf_counter() - start)
        return best

    chunked_result = benchmark(
        lambda: mixed(SlidingWindowPercentile(window=1000, percentile=95)))
    assert chunked_result > 0

    chunked_best = timed(SlidingWindowPercentile)
    list_best = timed(ListSlidingWindowPercentile)
    # Generous noise allowance; in practice chunked wins ~20% here.
    assert chunked_best <= list_best * 1.25, (
        f"chunked {chunked_best:.4f}s vs list {list_best:.4f}s")

    # Same inputs, bit-identical percentile outputs.
    a = SlidingWindowPercentile(window=1000, percentile=95)
    b = ListSlidingWindowPercentile(window=1000, percentile=95)
    for v in values:
        a.observe(v)
        b.observe(v)
        assert a.value() == b.value()


def test_bench_select_frequency(benchmark):
    estimator = ExecutionTimeEstimator()
    workload = Workload("w", 0.050)
    for freq in FREQS:
        estimator.prime("w", freq, 1e-3 * 2.8 / freq, count=10)
    scheduler = PolarisScheduler(FREQS, estimator)
    rng = random.Random(1)
    for _ in range(16):
        scheduler.enqueue(Request(workload, "w", rng.random() * 1e-3, 1.0))
    running = Request(workload, "w", 0.0, 1.0)

    result = benchmark(scheduler.select_frequency, 1e-3, running, 0.5e-3)
    assert result in FREQS


def test_bench_btree_insert_lookup(benchmark):
    rng = random.Random(2)
    keys = [rng.randrange(1 << 30) for _ in range(2000)]

    def run():
        tree = BPlusTree()
        for key in keys:
            tree.insert(key, key)
        hits = sum(1 for key in keys if tree.get(key) == key)
        return hits

    assert benchmark(run) == len(set(keys)) + (len(keys) - len(set(keys)))


def test_bench_edf_queue_churn(benchmark):
    from repro.db.queues import EdfQueue
    workload = Workload("w", 0.05)
    rng = random.Random(3)
    arrivals = [rng.random() for _ in range(1000)]

    def run():
        queue = EdfQueue()
        for arrival in arrivals:
            queue.push(Request(workload, "w", arrival, 1.0))
        popped = 0
        while queue.pop() is not None:
            popped += 1
        return popped

    assert benchmark(run) == 1000


class _PopZeroEdfQueue:
    """The pre-head-pointer EdfQueue (two sorted lists, ``pop(0)``),
    kept as the comparison baseline for the bench below."""

    def __init__(self):
        import bisect
        self._bisect = bisect
        self._keys = []
        self._items = []

    def push(self, request):
        key = (request.deadline, request.request_id)
        idx = self._bisect.bisect_left(self._keys, key)
        self._keys.insert(idx, key)
        self._items.insert(idx, request)

    def pop(self):
        if not self._items:
            return None
        self._keys.pop(0)
        return self._items.pop(0)


def test_bench_edf_pop_headpointer_vs_popzero(benchmark):
    """The head-pointer pop is amortized O(1) where ``pop(0)`` memmoves
    the whole backing list; at deep-backlog churn (the overload regimes
    of Figures 7/9, where EDF queues grow into the thousands) the win is
    asymptotic."""
    from repro.db.queues import EdfQueue
    from repro.harness.profiling import perf_clock

    workload = Workload("w", 0.05)
    depth = 16000
    # Arrival-ordered requests of one workload class: deadlines are
    # monotone, so every push is an append and the queue's cost is all
    # in pop --- the server's actual backlog pattern, and exactly where
    # ``pop(0)`` degenerates.
    requests = [Request(workload, "w", float(i), 1.0)
                for i in range(depth)]

    def churn(factory):
        queue = factory()
        for request in requests:
            queue.push(request)
        popped = 0
        while queue.pop() is not None:
            popped += 1
        return popped

    def best_of(factory, repeats=3):
        churn(factory)  # warm
        best = float("inf")
        for _ in range(repeats):
            start = perf_clock()
            churn(factory)
            best = min(best, perf_clock() - start)
        return best

    assert churn(EdfQueue) == churn(_PopZeroEdfQueue) == depth

    fast = best_of(EdfQueue)
    slow = best_of(_PopZeroEdfQueue)
    assert benchmark(churn, EdfQueue) == depth
    # At depth 16000 the pop(0) memmoves dominate; the head-pointer
    # variant wins by multiples.  Require a clear margin, not parity.
    assert fast < slow * 0.5, (
        f"head-pointer {fast:.4f}s vs pop(0) {slow:.4f}s")


def test_bench_calendar_vs_heap_event_queue(benchmark):
    """The calendar queue's near-O(1) push/pop vs the binary heap's
    O(log n), at a server-shaped backlog (~4000 pending timers, every
    fired event scheduling a successor).  Both engines produce the same
    fire count by construction (the oracle-equivalence suite proves
    order equality); here only the clock differs."""
    from repro.harness.profiling import perf_clock

    total = 200_000
    pending = 4000

    def churn(queue_kind):
        sim = Simulator(queue=queue_kind)
        rand = random.Random(7).random
        schedule = sim.schedule
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < total:
                schedule(rand() * 1e-3, tick)

        for _ in range(pending):
            schedule(rand() * 1e-3, tick)
        sim.run()
        return count[0]

    def best_of(queue_kind, repeats=3):
        churn(queue_kind)  # warm
        best = float("inf")
        for _ in range(repeats):
            start = perf_clock()
            churn(queue_kind)
            best = min(best, perf_clock() - start)
        return best

    # Every seed event and every chained tick fires once; chaining
    # stops at ``total``, so the drain adds the other pending - 1.
    fires = total + pending - 1
    assert churn("calendar") == churn("heap") == fires

    fast = best_of("calendar")
    slow = best_of("heap")
    assert benchmark(churn, "calendar") == fires
    # Locally the calendar queue wins ~1.7x at this depth; require a
    # clear margin, not parity, while leaving room for noisy runners.
    assert fast < slow * 0.8, (
        f"calendar {fast:.4f}s vs heap {slow:.4f}s")


def test_bench_reprolint_full_tree(benchmark):
    """The whole-program analyzer over the shipped tree, inside the
    10 s wall budget CI gives the lint job, and finding nothing."""
    from pathlib import Path

    from repro.analysis.callgraph import CallGraph
    from repro.analysis.flows import FlowAnalysis
    from repro.analysis.project import Project
    from repro.analysis.units import UnitAnalysis
    from repro.harness.profiling import perf_clock

    src = Path(__file__).resolve().parent.parent / "src"

    def analyze():
        project = Project.load([src])
        findings = UnitAnalysis(project).run()
        findings += FlowAnalysis(project, CallGraph(project)).run()
        return findings

    start = perf_clock()
    assert analyze() == []
    total_s = perf_clock() - start
    assert total_s < 10.0, (
        f"analyzer took {total_s:.2f}s; the CI budget is 10s")
    assert benchmark(analyze) == []


def test_bench_fleet_events(benchmark):
    """One elastic fleet cell under pytest-benchmark timing.

    A fleet cell multiplies the per-server hot paths by the node count
    and layers the router and elastic controller on top.  The number
    to compare across commits is ``python -m bench``'s ``fleet_diurnal``
    row; this one only has to run and repeat itself exactly.
    """
    import random as _random

    from repro.fleet import FleetConfig
    from repro.harness import ExperimentConfig, run_experiment
    from repro.workloads.traces import normalize, synthesize_diurnal_trace

    trace = normalize(synthesize_diurnal_trace(
        8, _random.Random(7), peak_rate_scale=1000.0))
    config = ExperimentConfig(
        benchmark="tpcc", scheme="polaris", slack=60.0,
        warmup_seconds=0.3, test_seconds=float(len(trace)),
        drain_limit_seconds=5.0, seed=11, load_trace=trace,
        trace_low_fraction=0.1, trace_high_fraction=0.4,
        fleet=FleetConfig(shards=2, replicas_per_shard=1,
                          node_workers=2))

    def cell():
        return run_experiment(config)

    warm = cell()
    assert warm.completed > 0 and warm.sim_events > 0

    assert benchmark(cell).sim_events == warm.sim_events
