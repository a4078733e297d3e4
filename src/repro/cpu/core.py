"""Simulated frequency-scalable CPU core.

A :class:`Core` executes non-preemptive jobs: any object with ``work``
in giga-cycles (on a server, the request itself; the core writes nothing
onto it).  At frequency ``f`` GHz the remaining work drains at ``f``
giga-cycles per second, so a fresh job of work ``w`` takes ``w / f``
seconds --- the standard speed-scaling execution model (paper Section
4.1) restricted to the discrete P-state grid.

Frequency changes may arrive *mid-job*: POLARIS raises the frequency
when an urgent transaction arrives behind the running one (Figure 2 and
Lemma 4.2).  The core then recomputes the work executed so far and
reschedules the completion event.

The core also keeps exact energy/busy-time/residency accounts, closed
segment by segment at every state change, which the power meter, RAPL
counters, and the OS governors' utilization sampling all read.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.analysis.sanitizer import invariant
from repro.cpu.cstates import CStateModel
from repro.cpu.power import CorePowerModel
from repro.cpu.pstates import PStateTable
from repro.sim.engine import Event, Simulator


class Core:
    """One frequency-scalable physical core.

    Parameters
    ----------
    sim:
        The simulation clock/event loop.
    core_id:
        Stable identifier (used by MSR addressing and reports).
    pstates:
        The frequency grid this core can be set to.  Note: governors may
        use the full 16-level grid while POLARIS uses its 5-level subset;
        each experiment passes the appropriate table.
    power_model / cstates:
        Calibrated power curves and the idle-state ladder.
    transition_latency:
        Seconds of execution stall per frequency change (default 0; the
        paper measures sub-microsecond switches via direct MSR writes).
    """

    def __init__(self, sim: Simulator, core_id: int, pstates: PStateTable,
                 power_model: Optional[CorePowerModel] = None,
                 cstates: Optional[CStateModel] = None,
                 transition_latency: float = 0.0,
                 initial_freq: Optional[float] = None):
        self.sim = sim
        self.core_id = core_id
        self.pstates = pstates
        self.power_model = power_model or CorePowerModel()
        self.cstates = cstates or CStateModel()
        self.transition_latency = transition_latency

        self.freq: float = initial_freq if initial_freq is not None \
            else pstates.max_freq
        if self.freq not in pstates:
            raise ValueError(f"initial frequency {self.freq} not in table")
        #: simsan: inherited from the simulator so one flag governs the
        #: whole simulated machine.
        self.sanitize: bool = sim.sanitize
        #: repro.obs: inherited the same way; each core gets its own
        #: trace track so P-state transitions and the frequency counter
        #: render as one timeline row per core in Perfetto.
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("cpu", f"core-{core_id}")
        if self.tracer.enabled:
            self.tracer.counter(self.trace_track, f"freq_ghz.core{core_id}",
                                sim.now, freq_ghz=self.freq)

        #: Shared frequency domain this core belongs to, set by
        #: :class:`repro.cpu.topology.FrequencyDomain` at construction.
        #: ``None`` (per-core granularity) means the core owns its
        #: P-state register outright --- the pre-domain behavior.
        self.domain = None

        # --- execution state ------------------------------------------
        self._job: Any = None                 # anything with ``work``
        self._job_start: float = sim.now      # when _job was started
        self._executed: float = 0.0          # giga-cycles done on _job
        self._progress_mark: float = sim.now  # when _executed was last true
        self._completion: Optional[list] = None
        self._on_complete: Optional[Callable[[Any], None]] = None

        # --- degraded regimes (repro.faults) ---------------------------
        #: Thermal-throttle ceiling (GHz); ``None`` when unthrottled.
        #: While set, requested frequencies above it are clamped to the
        #: fastest table entry at or below the ceiling.
        self.throttle_ceiling_ghz: Optional[float] = None
        #: True while the core is frozen (contention stall / offlined):
        #: the running job's progress is banked and nothing executes
        #: until :meth:`resume`.
        self.stalled: bool = False
        self.stall_started_s: Optional[float] = None

        # --- accounting -------------------------------------------------
        self._segment_start: float = sim.now
        self._segment_busy: bool = False
        self.energy_joules: float = 0.0
        self.busy_seconds: float = 0.0
        self.freq_transitions: int = 0
        self.freq_residency: Dict[float, float] = {}
        #: Watts per table frequency: busy, and on a single-state ladder
        #: idle times its fraction (``CStateModel.idle_energy``'s own
        #: ``(a * b) * d``, so energy is bit-identical); else ``None``.
        freqs = pstates.frequencies
        self._busy_watts = {f: self.power_model.active_power(f)
                            for f in freqs}
        fraction = self.cstates.single_state_fraction
        self._idle_watts = None if fraction is None else {
            f: self.power_model.idle_power(f) * fraction for f in freqs}
        #: A single-state ladder's wake latency after any idle spell
        #: (``CStateModel.wake_latency`` for a positive duration).
        self._single_wake = self.cstates.ladder[0].wake_latency_s

    # ------------------------------------------------------------------
    # Public state
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a job is executing."""
        return self._job is not None

    def running_elapsed(self) -> float:
        """Run time so far of the current job (the paper's ``e0``)."""
        if self._job is None:
            return 0.0
        return self.sim.now - self._job_start

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start_job(self, job: Any,
                  on_complete: Optional[Callable[[Any], None]] = None) -> None:
        """Begin executing ``job`` (anything with ``work`` in giga-cycles)
        now; the core must be idle and the work non-negative.

        ``on_complete(job)`` fires at the job's completion time.  If the
        C-state ladder reached a deep state, its wake latency is paid
        before execution starts.
        """
        work = job.work
        if not work >= 0.0:  # written this way round to catch NaN too
            raise ValueError(
                f"core {self.core_id}: job work must be a non-negative "
                f"number of giga-cycles, got {work!r}")
        if self._job is not None:
            raise RuntimeError(f"core {self.core_id} is busy")
        if self.stalled:
            raise RuntimeError(f"core {self.core_id} is stalled")
        sim = self.sim
        now = sim.now
        # Close the idle segment that ends here (an idle core's segment
        # is never busy): _close_segment and wake_latency, inlined.
        duration = now - self._segment_start
        if self.sanitize:
            self._check_segment(now, duration)
        if duration > 0:
            freq = self.freq
            idle_watts = self._idle_watts
            if idle_watts is not None:
                wake = self._single_wake
                self.energy_joules += idle_watts[freq] * duration
            else:
                cstates = self.cstates
                wake = cstates.wake_latency(duration)
                self.energy_joules += cstates.idle_energy(
                    self.power_model.idle_power(freq), duration)
            residency = self.freq_residency
            residency[freq] = residency.get(freq, 0.0) + duration
        else:
            wake = 0.0
        self._segment_start = now
        self._segment_busy = True
        self._job = job
        self._job_start = now
        self._executed = 0.0
        self._progress_mark = now + wake
        self._on_complete = on_complete
        self._completion = sim.schedule(wake + work / self.freq,
                                        self._complete)
        if self.sanitize:
            self.sanitize_check()

    def _complete(self) -> None:
        job = self._job
        assert job is not None
        # Close the busy segment that ends here: _close_segment inlined.
        now = self.sim.now
        duration = now - self._segment_start
        if self.sanitize:
            self._check_segment(now, duration)
        if duration > 0:
            freq = self.freq
            self.energy_joules += self._busy_watts[freq] * duration
            self.busy_seconds += duration
            residency = self.freq_residency
            residency[freq] = residency.get(freq, 0.0) + duration
        self._segment_start = now
        self._segment_busy = False
        self._job = None
        self._completion = None
        callback = self._on_complete
        self._on_complete = None
        if callback is not None:
            callback(job)

    def close(self) -> None:
        """Drop the links back into the run that is over: the stranded
        job's completion callback (its worker, which holds this core)
        and the shared domain (which holds this core too)."""
        self._on_complete = None
        self.domain = None

    # ------------------------------------------------------------------
    # DVFS
    # ------------------------------------------------------------------
    def set_frequency(self, freq_ghz: float) -> None:
        """Change the core's P-state, possibly mid-job.

        The remaining work of a running job is recomputed against the
        new frequency and its completion event rescheduled.  A non-zero
        ``transition_latency`` stalls the running job for that long.
        Under an active thermal-throttle ceiling the request is clamped
        to the fastest achievable P-state at or below the ceiling.
        """
        if freq_ghz not in self.pstates:
            raise ValueError(
                f"{freq_ghz} GHz not in core {self.core_id}'s P-state table")
        freq_ghz = self.achievable_frequency(freq_ghz)
        if abs(freq_ghz - self.freq) < 1e-12:
            return
        if self.tracer.enabled:
            # Only *real* transitions are recorded (same-frequency
            # requests returned above), mirroring `freq_transitions`.
            self.tracer.instant(
                self.trace_track, "pstate:transition", self.sim.now,
                old_ghz=self.freq, new_ghz=freq_ghz,
                pstate=self.pstates.state_label(freq_ghz),
                mid_job=self._job is not None)
            self.tracer.counter(
                self.trace_track, f"freq_ghz.core{self.core_id}",
                self.sim.now, freq_ghz=freq_ghz)
        self._close_segment()
        if self._job is not None and not self.stalled:
            # Bank progress made at the old frequency.  (A stalled core
            # already banked it and has no completion pending; the new
            # frequency simply applies when it resumes.)
            ran = max(0.0, self.sim.now - self._progress_mark)
            self._executed = min(self._job.work, self._executed + ran * self.freq)
            self._progress_mark = self.sim.now + self.transition_latency
            remaining_gcycles = max(0.0, self._job.work - self._executed)
            assert self._completion is not None
            Event.cancel(self._completion)
            self._completion = self.sim.schedule(
                self.transition_latency + remaining_gcycles / freq_ghz,
                self._complete)
        self.freq = freq_ghz
        self.freq_transitions += 1
        if self.sanitize:
            self.sanitize_check()

    def request_frequency(self, freq_ghz: float) -> None:
        """Ask for a P-state, honoring any shared frequency domain.

        On a per-core topology (``domain is None``) this is exactly
        :meth:`set_frequency`.  Under a shared domain the request is
        filed as this core's *vote* and the domain applies the max of
        member votes to every member --- so the core may end up at a
        higher frequency than requested, or unchanged if a sibling's
        vote already dominates.  All policy-level frequency choices
        (schedulers, governors, resilience pins) go through here;
        :meth:`set_frequency` remains the raw register write the domain
        itself uses.
        """
        if self.domain is None:
            self.set_frequency(freq_ghz)
        else:
            self.domain.request(self, freq_ghz)

    def achievable_frequency(self, freq_ghz: float) -> float:
        """What ``set_frequency(freq_ghz)`` would actually deliver.

        Identity when unthrottled; under a ceiling, the fastest table
        frequency not exceeding it.  Callers verifying a DVFS write
        took effect compare against this, so a throttle clamp is never
        mistaken for a failed write.
        """
        ceiling_ghz = self.throttle_ceiling_ghz
        if ceiling_ghz is None or freq_ghz <= ceiling_ghz + 1e-12:
            return freq_ghz
        return self.pstates.nearest_at_most(ceiling_ghz)

    def projected_frequency(self, freq_ghz: float) -> float:
        """What :meth:`request_frequency(freq_ghz)` would leave this
        core running at --- the domain-aware analogue of
        :meth:`achievable_frequency`.  DVFS-write verification compares
        against this so a sibling's higher vote in a shared domain is
        never mistaken for a failed write.
        """
        if self.domain is None:
            return self.achievable_frequency(freq_ghz)
        return self.domain.projected_frequency(self, freq_ghz)

    # ------------------------------------------------------------------
    # Degraded regimes (repro.faults)
    # ------------------------------------------------------------------
    def set_throttle_ceiling(self, ceiling_ghz: Optional[float]) -> None:
        """Apply (or clear, with ``None``) a thermal-throttle ceiling.

        Entering a throttle window immediately steps an over-ceiling
        core down; leaving one changes nothing until the next frequency
        decision, as on real hardware (the OS re-raises, not the PROCHOT
        deassertion).
        """
        self.throttle_ceiling_ghz = ceiling_ghz
        if self.tracer.enabled:
            self.tracer.instant(
                self.trace_track, "throttle:ceiling", self.sim.now,
                ceiling_ghz=ceiling_ghz if ceiling_ghz is not None else -1.0)
        if ceiling_ghz is not None and self.freq > ceiling_ghz + 1e-12:
            self.set_frequency(self.pstates.nearest_at_most(ceiling_ghz))
        elif self.sanitize:
            self.sanitize_check()

    def stall(self) -> None:
        """Freeze the core: bank the running job's progress and stop.

        Models a contention stall, SMI, or outright core failure.  The
        in-flight job (if any) keeps its banked giga-cycles and resumes
        where it left off on :meth:`resume`; power drops to the idle
        floor while frozen.  Idempotent.
        """
        if self.stalled:
            return
        self._close_segment()
        if self._job is not None:
            ran = max(0.0, self.sim.now - self._progress_mark)
            self._executed = min(self._job.work,
                                 self._executed + ran * self.freq)
            if self._completion is not None:
                Event.cancel(self._completion)
                self._completion = None
        self._segment_busy = False
        self.stalled = True
        self.stall_started_s = self.sim.now
        if self.sanitize:
            self.sanitize_check()

    def resume(self) -> None:
        """Unfreeze a stalled core; a banked job continues its remaining
        work at the current frequency.  Idempotent."""
        if not self.stalled:
            return
        self._close_segment()
        self.stalled = False
        self.stall_started_s = None
        if self._job is not None:
            self._segment_busy = True
            self._progress_mark = self.sim.now
            remaining_gcycles = max(0.0, self._job.work - self._executed)
            self._completion = self.sim.schedule(
                remaining_gcycles / self.freq, self._complete)
        if self.sanitize:
            self.sanitize_check()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _close_segment(self) -> None:
        """Integrate energy/busy time since the last state change."""
        now = self.sim.now
        duration = now - self._segment_start
        if self.sanitize:
            self._check_segment(now, duration)
        if duration > 0:
            freq = self.freq
            residency = self.freq_residency
            self.energy_joules += self._segment_energy(duration)
            if self._segment_busy:
                self.busy_seconds += duration
            residency[freq] = residency.get(freq, 0.0) + duration
        self._segment_start = now

    def _check_segment(self, now: float, duration: float) -> None:
        invariant(duration >= 0, "clock-monotonic",
                  "accounting segment runs backwards in time",
                  core_id=self.core_id, now=now,
                  segment_start=self._segment_start)

    def _segment_energy(self, duration: float) -> float:
        """Joules of the open segment after ``duration`` seconds: the
        per-frequency watt tables, or on a multi-state ladder the
        C-state model (the same ``(a * b) * d`` either way)."""
        freq = self.freq
        if self._segment_busy:
            return self._busy_watts[freq] * duration
        if self._idle_watts is not None:
            return self._idle_watts[freq] * duration
        return self.cstates.idle_energy(self.power_model.idle_power(freq),
                                        duration)

    def flush_accounting(self) -> None:
        """Close the open accounting segment at the current time.

        Call before reading :attr:`freq_residency` / :attr:`busy_seconds`
        directly; :meth:`energy_at` and :meth:`busy_seconds_at` already
        include the open segment.
        """
        self._close_segment()

    def energy_at(self, now: float) -> float:
        """Exact energy consumed up to ``now`` (J), including the open segment."""
        duration = now - self._segment_start
        if duration <= 0:
            return self.energy_joules
        return self.energy_joules + self._segment_energy(duration)

    def busy_seconds_at(self, now: float) -> float:
        """Cumulative busy time up to ``now`` (for governor utilization)."""
        extra = 0.0
        if self._segment_busy:
            extra = max(0.0, now - self._segment_start)
        return self.busy_seconds + extra

    # ------------------------------------------------------------------
    # simsan
    # ------------------------------------------------------------------
    def sanitize_check(self) -> None:
        """Verify the core's physical invariants.

        Run after every job dispatch and frequency change when the
        sanitizer is enabled; callable directly from tests.  Checks:

        * **freq-bounds** --- the operating frequency lies inside the
          P-state table's [min, max] range;
        * **work-cycles** --- banked progress on the running job stays
          within ``[0, job.work]`` giga-cycles (a mis-banked frequency
          change would silently stretch or truncate the transaction);
        * **power-consistency** --- the power model agrees with the
          P-state physics at the current operating point: nonnegative
          draw, and active power at least the idle floor;
        * **throttle-ceiling** --- under an active thermal throttle the
          operating frequency respects the ceiling (clamped to the grid:
          a ceiling below the table floor allows the floor frequency).
        """
        invariant(self.pstates.in_bounds(self.freq), "freq-bounds",
                  "core frequency is outside the P-state table bounds",
                  core_id=self.core_id, freq=self.freq,
                  min_freq=self.pstates.min_freq,
                  max_freq=self.pstates.max_freq, now=self.sim.now)
        if self.throttle_ceiling_ghz is not None:
            limit_ghz = max(self.throttle_ceiling_ghz,
                            self.pstates.min_freq)
            invariant(self.freq <= limit_ghz + 1e-9, "throttle-ceiling",
                      "core runs above an active thermal-throttle ceiling",
                      core_id=self.core_id, freq=self.freq,
                      ceiling_ghz=self.throttle_ceiling_ghz,
                      now=self.sim.now)
        if self._job is not None:
            invariant(0.0 <= self._executed <= self._job.work + 1e-9,
                      "work-cycles",
                      "banked work is negative or exceeds the job size",
                      core_id=self.core_id, executed=self._executed,
                      work=self._job.work, now=self.sim.now)
            invariant(self.stalled or (self._completion is not None
                      and not self._completion[4]), "work-cycles",
                      "running job has no pending completion event",
                      core_id=self.core_id, now=self.sim.now)
            invariant(not self.stalled or self._completion is None,
                      "work-cycles",
                      "stalled core still has a completion scheduled",
                      core_id=self.core_id, now=self.sim.now)
        active = self.power_model.active_power(self.freq)
        idle = self.power_model.idle_power(self.freq)
        invariant(0.0 <= idle <= active, "power-consistency",
                  "power model draw is negative or idle exceeds active",
                  core_id=self.core_id, freq=self.freq,
                  active_watts=active, idle_watts=idle, now=self.sim.now)

    def current_power(self) -> float:
        """Instantaneous draw right now (W), respecting the C-state ladder."""
        if self._segment_busy:
            return self.power_model.active_power(self.freq)
        idle_for = self.sim.now - self._segment_start
        segments = self.cstates.segments(idle_for) if idle_for > 0 else []
        fraction = segments[-1][0].power_fraction if segments \
            else self.cstates.ladder[0].power_fraction
        return self.power_model.idle_power(self.freq) * fraction
