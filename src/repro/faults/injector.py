"""Turn a :class:`~repro.faults.plan.FaultPlan` into simulator events.

The injector owns the *when* and *whether* of every fault; each fault
acts through a seam on the component it breaks:

* ``MsrFile.fault_hook`` --- consulted per ``IA32_PERF_CTL`` write;
  returns ``"error"`` (the write raises
  :class:`~repro.cpu.msr.InjectedMsrError`), ``"stuck"`` (the write is
  silently dropped), or ``None``.
* ``Core.set_throttle_ceiling`` / ``Core.stall`` / ``Core.resume`` ---
  driven by scheduled window-boundary events.
* ``ExecutionTimeEstimator.skew`` --- set at every skew window edge to
  the factors of the windows then open, in plan order, on the estimator
  of the server's schedulers.
* :func:`wrap_rate` --- a pure function of the plan's bursts and
  the virtual clock multiplying the offered-load rate inside burst
  windows (no extra RNG draws, so the arrival *pattern* outside bursts
  is untouched).

All probabilistic decisions draw from one dedicated seeded stream
(``streams.get("faults")``), so faulted runs are exactly as
reproducible as healthy ones.  Every firing bumps a per-kind counter
and emits an ``obs`` trace instant on the ``faults/injector`` track.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.faults.plan import FaultPlan

#: Deterministic ordering of the per-kind fault counters.
_KINDS = ("msr", "throttle", "stall", "burst", "skew")


class FaultInjector:
    """Schedules and fires one plan's faults against one server."""

    def __init__(self, sim, plan: FaultPlan, rng: random.Random):
        self.sim = sim
        self.plan = plan
        self.rng = rng
        self.injected: Dict[str, int] = {kind: 0 for kind in _KINDS}
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("faults", "injector")
        self._server = None
        #: core_id -> active throttle ceilings (overlap-aware).
        self._ceilings: Dict[int, List[float]] = {}
        self._estimators: list = []

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def _fired(self, kind: str, name: str, **payload) -> None:
        self.injected[kind] += 1
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, name, self.sim.now,
                                scenario=self.plan.name, **payload)
            self.tracer.counter(self.trace_track, "faults_injected",
                                self.sim.now, count=self.total_injected)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, server) -> None:
        """Install MSR hooks and schedule every windowed fault.

        Call once, before the simulation starts; ``server`` is the
        :class:`~repro.db.server.DatabaseServer` under test.  A spec
        naming a worker the server does not have is a
        :class:`ValueError`.
        """
        if self._server is not None:
            raise RuntimeError("injector is already attached")
        plan = self.plan
        count = len(server.workers)
        for spec in plan.msr_faults + plan.throttles + plan.stalls:
            for worker_id in spec.workers:
                if worker_id >= count:
                    raise ValueError(
                        f"{type(spec).__name__} names unknown worker "
                        f"{worker_id} (the server has {count})")
        self._server = server
        # The schedulers' estimators, each once (a run shares one).
        self._estimators = [e for e in dict.fromkeys(
            w.dispatcher.estimator for w in server.workers)
            if e is not None]
        if self.plan.msr_faults:
            for worker in server.workers:
                worker.msr.fault_hook = partial(self._msr_fault,
                                                worker.worker_id)
        for spec in self.plan.throttles:
            for worker in self._domain_scope(self._affected(spec.workers)):
                self.sim.schedule_at(
                    spec.start_s,
                    partial(self._throttle_begin, worker, spec))
                self.sim.schedule_at(
                    spec.end_s, partial(self._throttle_end, worker, spec))
        for spec in self.plan.stalls:
            for worker in self._domain_scope(self._affected(spec.workers)):
                self.sim.schedule_at(spec.at_s,
                                     partial(self._stall_begin, worker))
                if spec.duration_s is not None:
                    self.sim.schedule_at(spec.at_s + spec.duration_s,
                                         partial(self._stall_end, worker))
        for spec in self.plan.bursts:
            self.sim.schedule_at(
                spec.start_s,
                partial(self._window_edge, "burst", "fault:burst",
                        True, multiplier=spec.multiplier))
            self.sim.schedule_at(
                spec.end_s,
                partial(self._window_edge, "burst", "fault:burst",
                        False, multiplier=spec.multiplier))
        for spec in self.plan.skews:
            self.sim.schedule_at(spec.start_s,
                                 partial(self._skew_edge, spec, True))
            self.sim.schedule_at(spec.end_s,
                                 partial(self._skew_edge, spec, False))

    def _affected(self, worker_ids) -> list:
        workers = self._server.workers
        if not worker_ids:
            return list(workers)
        return [workers[i] for i in worker_ids]

    def _domain_scope(self, affected: list) -> list:
        """Widen physical faults to whole frequency domains.

        Thermal throttles and core stalls act on silicon the targeted
        core shares with its domain siblings (one voltage rail, one
        clock), so on shared-domain topologies every member of a
        targeted core's domain degrades together.  Per-core topologies
        (``domain is None``) pass through unchanged --- the pre-domain
        behavior.  Order is worker-id ascending, deduplicated, for
        deterministic event scheduling.
        """
        workers = self._server.workers
        if all(worker.core.domain is None for worker in affected):
            # Identity topology: keep the caller's ordering exactly
            # (event scheduling order is part of determinism).
            return affected
        selected_ids = set()
        for worker in affected:
            domain = worker.core.domain
            if domain is None:
                selected_ids.add(worker.worker_id)
            else:
                selected_ids.update(domain.member_ids())
        return [workers[i] for i in sorted(selected_ids)]

    # ------------------------------------------------------------------
    # DVFS write faults
    # ------------------------------------------------------------------
    def _msr_fault(self, worker_id: int, address: int,
                   value: int) -> Optional[str]:
        """The ``MsrFile.fault_hook``: decide one write's fate."""
        now_s = self.sim.now
        for spec in self.plan.msr_faults:
            if not spec.start_s <= now_s < spec.end_s:
                continue
            if spec.workers and worker_id not in spec.workers:
                continue
            if spec.probability < 1.0 \
                    and self.rng.random() >= spec.probability:
                continue
            self._fired("msr", f"fault:msr:{spec.mode}",
                        worker=worker_id, value=value)
            return spec.mode
        return None

    # ------------------------------------------------------------------
    # Thermal-throttle envelopes (overlap-aware per core)
    # ------------------------------------------------------------------
    def _throttle_begin(self, worker, spec) -> None:
        active = self._ceilings.setdefault(worker.core.core_id, [])
        active.append(spec.ceiling_ghz)
        worker.core.set_throttle_ceiling(min(active))
        self._fired("throttle", "fault:throttle:begin",
                    worker=worker.worker_id, ceiling_ghz=spec.ceiling_ghz)

    def _throttle_end(self, worker, spec) -> None:
        active = self._ceilings.get(worker.core.core_id, [])
        if spec.ceiling_ghz in active:
            active.remove(spec.ceiling_ghz)
        worker.core.set_throttle_ceiling(min(active) if active else None)
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "fault:throttle:end",
                                self.sim.now, scenario=self.plan.name,
                                worker=worker.worker_id)

    # ------------------------------------------------------------------
    # Core stalls / offlining
    # ------------------------------------------------------------------
    def _stall_begin(self, worker) -> None:
        worker.core.stall()
        self._fired("stall", "fault:core-stall", worker=worker.worker_id)

    def _stall_end(self, worker) -> None:
        worker.core.resume()
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "fault:core-resume",
                                self.sim.now, scenario=self.plan.name,
                                worker=worker.worker_id)
        worker.kick()

    # ------------------------------------------------------------------
    # Estimator skew and burst window edges (a burst's rate change lives
    # in wrap_rate, which reads the plan directly; its edges only count
    # and trace)
    # ------------------------------------------------------------------
    def _skew_edge(self, spec, opening: bool) -> None:
        """Skew the estimator by the factors of the windows open now,
        in plan order."""
        now_s = self.sim.now
        factors = [skew.factor for skew in self.plan.skews
                   if skew.start_s <= now_s < skew.end_s]
        for estimator in self._estimators:
            estimator.skew(factors)
        self._window_edge("skew", "fault:estimator-skew", opening,
                          factor=spec.factor)

    def _window_edge(self, kind: str, name: str, opening: bool,
                     **payload) -> None:
        if opening:
            self._fired(kind, f"{name}:begin", **payload)
        elif self.tracer.enabled:
            self.tracer.instant(self.trace_track, f"{name}:end",
                                self.sim.now, scenario=self.plan.name,
                                **payload)


# ----------------------------------------------------------------------
# A pure wrapper: a function of the plan and the virtual clock alone, so
# the experiment kernel applies it at either tier without an injector
# ----------------------------------------------------------------------
def wrap_rate(rate_fn: Callable[[float], float], bursts
              ) -> Callable[[float], float]:
    """Multiply the offered-load rate inside burst windows."""
    if not bursts:
        return rate_fn

    def burst_rate(now_s: float) -> float:
        rate = rate_fn(now_s)
        for spec in bursts:
            if spec.start_s <= now_s < spec.end_s:
                rate *= spec.multiplier
        return rate

    return burst_rate


__all__ = ["FaultInjector", "wrap_rate"]
