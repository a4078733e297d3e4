"""The traced run: spans and counts recorded from outside the program.

``installed(ledger)`` replaces public methods *on their classes* (and
two module functions) with wrappers before any simulation object is
built, and restores them afterwards.  Each wrapper records one span ---
name, duration by ``perf_counter_ns``, and the enclosing wrapped call as
parent --- aggregated per ``(span, parent)`` in memory.  A span's self
time is its duration minus the part covered by child spans.

Two targets are private methods: ``ElasticController._tick`` and
``DynamicGovernor._sample`` are the timer entry points of their layers
and have no public equivalent to wrap.

Wrapper cost (about a microsecond per call) lands in the *parent's*
self time, so shares of layers with many wrapped children (the engine
residual above all) read high; ``bench.trace_overhead_ratio`` says by
how much overall.  Compare ``share`` against ``*_ns`` micro-driver
numbers before believing either.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: (module, class or None for a module-level function, attribute, span).
#: A span's layer is its name up to the last dot.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.engine.run"),
    ("repro.sim.engine", "Simulator", "step", "sim.engine.step"),
    ("repro.sim.engine", "Event", "cancel", "sim.engine.cancel"),
    ("repro.db.server", "DatabaseServer", "submit", "db.server.submit"),
    ("repro.db.server", "DatabaseServer", "notify_completion",
     "db.server.notify_completion"),
    ("repro.db.server", "Worker", "accept", "db.server.accept"),
    ("repro.core.polaris", "PolarisScheduler", "select_frequency",
     "core.polaris.select_frequency"),
    ("repro.core.polaris", "PolarisScheduler", "enqueue",
     "core.polaris.enqueue"),
    ("repro.core.polaris", "PolarisScheduler", "next_request",
     "core.polaris.next_request"),
    ("repro.core.polaris", "PolarisScheduler", "record_completion",
     "core.polaris.record_completion"),
    ("repro.core.estimator", "ExecutionTimeEstimator", "observe",
     "core.estimator.observe"),
    ("repro.core.estimator", "ExecutionTimeEstimator", "estimate",
     "core.estimator.estimate"),
    ("repro.cpu.core", "Core", "start_job", "cpu.core.start_job"),
    ("repro.cpu.core", "Core", "set_frequency", "cpu.core.set_frequency"),
    ("repro.cpu.core", "Core", "request_frequency",
     "cpu.core.request_frequency"),
    ("repro.metrics.latency", "LatencyRecorder", "on_completion",
     "metrics.latency.on_completion"),
    ("repro.workloads.base", "BenchmarkSpec", "choose_type",
     "workloads.choose_type"),
    ("repro.workloads.base", "ServiceTimeModel", "draw_work",
     "workloads.draw_work"),
    ("repro.governors.base", "DynamicGovernor", "_sample",
     "governors.sample"),
    ("repro.fleet.router", "ClusterRouter", "route", "fleet.router.route"),
    ("repro.fleet.controller", "ElasticController", "_tick",
     "fleet.controller.tick"),
    ("repro.fleet.node", "Node", "unpark", "fleet.node.unpark"),
    ("repro.fleet.node", "Node", "begin_drain", "fleet.node.begin_drain"),
    ("repro.harness.parallel", "SweepRunner", "run",
     "harness.parallel.run"),
    ("repro.harness.parallel", "SweepCache", "get", "harness.parallel.get"),
    ("repro.harness.parallel", "SweepCache", "put", "harness.parallel.put"),
    ("repro.harness.parallel", None, "config_key",
     "harness.parallel.config_key"),
    # run_experiment is bound by name in both modules; the cell root.
    ("repro.harness.experiment", None, "run_experiment", "cell"),
    ("repro.harness.parallel", None, "run_experiment", "cell"),
)

ROOT_SPAN = "cell"


class SpanLedger:
    """Aggregated spans plus the few value probes the table asks for."""

    def __init__(self) -> None:
        # Open spans as [name, nanoseconds covered by children]; the
        # sentinel makes ``stack[-1]`` valid at top level.
        self._stack: List[list] = [[None, 0]]
        # (span, parent) -> [calls, total ns, ns covered by children]
        self._agg: Dict[Tuple[str, Optional[str]], List[int]] = {}
        #: Queue length seen by each select_frequency call.
        self.queue_lengths: Counter = Counter()
        #: set_frequency calls that changed the P-state.
        self.transitions = 0

    def wrap(self, fn, name: str):
        stack, agg, clock = self._stack, self._agg, perf_counter_ns

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                parent[1] += took
                record = agg.get((name, parent[0]))
                if record is None:
                    agg[(name, parent[0])] = [1, took, frame[1]]
                else:
                    record[0] += 1
                    record[1] += took
                    record[2] += frame[1]
        return span

    # -- reading -------------------------------------------------------
    def _sum(self, spans: Sequence[str], column: int) -> int:
        return sum(record[column] for (name, _), record in self._agg.items()
                   if name in spans)

    def calls(self, *spans: str) -> int:
        return self._sum(spans, 0)

    def total_s(self, *spans: str) -> float:
        return self._sum(spans, 1) / 1e9

    def self_s(self, *spans: str) -> float:
        return (self._sum(spans, 1) - self._sum(spans, 2)) / 1e9

    def layer_self_s(self, layer: str) -> float:
        return self.self_s(*{name for name, _ in self._agg
                             if name.rpartition(".")[0] == layer})

    def rows(self) -> List[dict]:
        """The spans as written to ``--out``."""
        return [{"span": name, "parent": parent, "calls": calls,
                 "total_s": total / 1e9, "self_s": (total - child) / 1e9}
                for (name, parent), (calls, total, child)
                in sorted(self._agg.items(), key=lambda kv: -kv[1][1])]

    def queue_length_stats(self) -> Tuple[float, float]:
        """(mean, p99) of the queue length read at select_frequency."""
        calls = sum(self.queue_lengths.values())
        if not calls:
            return 0.0, 0.0
        mean = sum(n * c for n, c in self.queue_lengths.items()) / calls
        seen = 0
        for length in sorted(self.queue_lengths):
            seen += self.queue_lengths[length]
            if seen >= 0.99 * calls:
                return mean, float(length)
        raise AssertionError("unreachable: counts sum to calls")


def _probed(ledger: SpanLedger, span_name: str, wrapped):
    """Add the value probes that need ``self`` around two spans."""
    if span_name == "core.polaris.select_frequency":
        lengths = ledger.queue_lengths

        def select_frequency(self, *args, **kwargs):
            lengths[len(self.queue)] += 1
            return wrapped(self, *args, **kwargs)
        return select_frequency
    if span_name == "cpu.core.set_frequency":
        def set_frequency(self, freq_ghz):
            before = self.freq_transitions
            wrapped(self, freq_ghz)
            if self.freq_transitions != before:
                ledger.transitions += 1
        return set_frequency
    return wrapped


@contextmanager
def installed(ledger: SpanLedger) -> Iterator[None]:
    """Patch every target for the duration of the block."""
    undo = []
    # Keyed by the original callable: run_experiment is bound by name in
    # two modules, and both bindings must share one wrapper.
    wrappers: dict = {}
    try:
        for module_name, class_name, attr, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            if original not in wrappers:
                wrappers[original] = _probed(
                    ledger, span_name, ledger.wrap(original, span_name))
            setattr(owner, attr, wrappers[original])
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(ledger: SpanLedger, build_train_self_s: float
                  ) -> Dict[str, float]:
    """Every traced ([T]) metric that comes from the spans alone.

    ``build_train_self_s`` is the root self time of the build-and-
    train-only versions of the same cells under the same wrappers; what
    is left of the full cells' root self time after removing it is the
    collect phase.
    """
    root_s = ledger.total_s(ROOT_SPAN)

    def share(seconds: float) -> float:
        return seconds / root_s if root_s else 0.0

    engine_residual = ledger.self_s("sim.engine.run", "sim.engine.step")
    select_self = ledger.self_s("core.polaris.select_frequency")
    estimator_self = ledger.layer_self_s("core.estimator")
    server_self = ledger.layer_self_s("db.server")
    core_self = ledger.layer_self_s("cpu.core")
    router_self = ledger.self_s("fleet.router.route")
    set_calls = ledger.calls("cpu.core.set_frequency")
    queue_mean, queue_p99 = ledger.queue_length_stats()
    fleet_cells = ledger.calls("fleet.router.route") > 0
    root_self = ledger.self_s(ROOT_SPAN)
    return {
        "sim.engine.residual_s": engine_residual,
        "sim.engine.residual_share": share(engine_residual),
        "core.polaris.select_frequency.calls":
            ledger.calls("core.polaris.select_frequency"),
        "core.polaris.select_frequency.self_s": select_self,
        "core.polaris.select_frequency.share": share(select_self),
        "core.polaris.select_frequency.queue_len_mean": queue_mean,
        "core.polaris.select_frequency.queue_len_p99": queue_p99,
        "core.polaris.enqueue_next.calls":
            ledger.calls("core.polaris.enqueue", "core.polaris.next_request"),
        "core.polaris.enqueue_next.self_s":
            ledger.self_s("core.polaris.enqueue", "core.polaris.next_request"),
        "core.estimator.observe.calls": ledger.calls("core.estimator.observe"),
        "core.estimator.estimate.calls":
            ledger.calls("core.estimator.estimate"),
        "core.estimator.self_s": estimator_self,
        "core.estimator.share": share(estimator_self),
        "db.server.submit.calls": ledger.calls("db.server.submit"),
        "db.server.accept.calls": ledger.calls("db.server.accept"),
        "db.server.self_s": server_self,
        "db.server.share": share(server_self),
        "cpu.core.start_job.calls": ledger.calls("cpu.core.start_job"),
        "cpu.core.set_frequency.calls": set_calls,
        "cpu.core.transition_ratio":
            ledger.transitions / set_calls if set_calls else 0.0,
        "cpu.core.self_s": core_self,
        "cpu.core.share": share(core_self),
        "workloads.arrivals.count": ledger.calls("workloads.choose_type"),
        "governors.ticks": ledger.calls("governors.sample"),
        "governors.self_s": ledger.self_s("governors.sample"),
        "metrics.latency.on_completion.calls":
            ledger.calls("metrics.latency.on_completion"),
        "metrics.self_s": ledger.layer_self_s("metrics.latency"),
        "fleet.router.route.calls": ledger.calls("fleet.router.route"),
        "fleet.router.self_s": router_self,
        "fleet.router.share": share(router_self),
        "fleet.controller.ticks": ledger.calls("fleet.controller.tick"),
        # router + controller + node + what run_fleet_experiment itself
        # spends outside every wrapped call.
        "fleet.self_s": (router_self + ledger.layer_self_s("fleet.controller")
                         + ledger.layer_self_s("fleet.node")
                         + (root_self if fleet_cells else 0.0)),
        "harness.experiment.collect_s": root_self - build_train_self_s,
    }
