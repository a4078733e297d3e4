"""Shared frequency domains and the socket topology that defines them.

POLARIS's prototype assumes each core scales independently, but the
paper's own testbed is a two-socket Xeon whose cores share package
voltage/clock infrastructure, and most deployed parts expose only
package- or module-granular frequency domains.  THEAS (arXiv:2510.09847)
argues multi-core power management must reason about such shared
domains, and Abousamra et al. (arXiv:1307.0531) show that speed-scaling
policy rankings shift with the hardware speed model --- so the
reproduction needs the coupled-domain axis to claim anything about
deployment.

Two classes model it:

* :class:`SocketTopology` --- the static shape: how core ids group into
  frequency domains (``per-core``, ``per-module``, ``per-socket``) and
  how long a domain-wide P-state switch stalls its member cores.
* :class:`FrequencyDomain` --- the dynamic coordination: N cores share
  one P-state register, each core files a *requested* frequency (its
  vote), and the domain runs at the **maximum of the member votes** ---
  the Linux ``cpufreq`` policy-sharing rule (``related_cpus`` under one
  policy resolve requests with ``CPUFREQ_RELATION_L`` against the
  highest request), clamped by the most-throttled member's thermal
  ceiling (a shared rail is as slow as its hottest core allows).

``per-core`` granularity is the default and creates **no** domain
objects at all: every code path is bit-identical to the pre-domain
behavior, which the harness's cache keys and the per-core identity
tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

from repro.analysis.sanitizer import invariant

if TYPE_CHECKING:  # layering: topology sits beside core, below db/server
    from repro.cpu.core import Core

#: Recognized granularity names, coarsest domain last.
GRANULARITIES = ("per-core", "per-module", "per-socket")

#: Cores per ``per-socket`` domain --- the paper's testbed: two 8-core
#: Xeon E5-2640 v3 packages.
CORES_PER_SOCKET = 8
#: Cores per ``per-module`` domain (e.g. an AMD CCX or Intel E-core
#: cluster).
CORES_PER_MODULE = 2


@dataclass(frozen=True)
class SocketTopology:
    """How cores map onto shared frequency domains.

    ``granularity`` picks the domain size (1, :data:`CORES_PER_MODULE`
    or :data:`CORES_PER_SOCKET` cores).
    ``switch_latency_s`` models the cost of re-locking a *shared* PLL:
    every domain P-state transition stalls each member core for that
    long (0.0 reproduces the paper's sub-microsecond direct-MSR
    switches).  Per-core granularity with zero switch latency is the
    identity topology --- today's behavior.
    """

    granularity: str = "per-core"
    switch_latency_s: float = 0.0

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {self.granularity!r}; "
                f"available: {list(GRANULARITIES)}")
        # Written so NaN fails too: every comparison with NaN is False.
        if not 0 <= self.switch_latency_s < math.inf:
            raise ValueError("switch_latency_s must be finite and "
                             f"non-negative, got {self.switch_latency_s!r}")

    @property
    def per_core(self) -> bool:
        """True for the identity topology (no shared domains)."""
        return self.granularity == "per-core"

    def domain_size(self) -> int:
        """Cores per frequency domain at this granularity."""
        if self.granularity == "per-socket":
            return CORES_PER_SOCKET
        if self.granularity == "per-module":
            return CORES_PER_MODULE
        return 1

    def domain_groups(self, n_cores: int) -> List[Tuple[int, ...]]:
        """Core-id groups for ``n_cores`` cores, ascending; the last
        domain may be partial (an under-populated package)."""
        size = self.domain_size()
        return [tuple(range(start, min(start + size, n_cores)))
                for start in range(0, n_cores, size)]


def make_topology(spec: Union[None, str, SocketTopology]) -> SocketTopology:
    """Coerce a config value into a :class:`SocketTopology`.

    Accepts ``None`` (identity), a granularity name, or an explicit
    topology.
    """
    if spec is None:
        return SocketTopology()
    if isinstance(spec, SocketTopology):
        return spec
    return SocketTopology(granularity=spec)


class FrequencyDomain:
    """N cores sharing one P-state register (one PERF_CTL per domain).

    Every frequency *request* for a member core --- scheduler MSR
    writes, governor decisions, resilience pins --- lands here as that
    core's vote; the domain then applies ``max(votes)``, clamped to the
    slowest member's thermal-throttle ceiling, to every member through
    :meth:`Core.set_frequency`.  Member cores therefore always run at
    one common frequency (the **domain-coherence** invariant, checked
    under simsan), and a core may run *above* its own vote whenever a
    sibling needs speed --- the power cost the coarse-granularity
    figure measures.
    """

    def __init__(self, domain_id: int, cores: Sequence["Core"]):
        if not cores:
            raise ValueError("a frequency domain needs at least one core")
        self.domain_id = domain_id
        self.cores = list(cores)
        freqs = {core.freq for core in self.cores}
        if len(freqs) != 1:
            raise ValueError(
                f"domain {domain_id} members start at different "
                f"frequencies: {sorted(freqs)}")
        #: core_id -> last requested frequency (GHz); seeded with the
        #: common initial frequency so an idle domain has a defined vote.
        self.votes = {core.core_id: core.freq for core in self.cores}
        self.transitions = 0
        sim = self.cores[0].sim
        self.sim = sim
        self.sanitize: bool = sim.sanitize
        #: repro.obs: the domain gets its own track so shared-register
        #: transitions render as one Perfetto row per domain, beside
        #: the member cores' rows.
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("cpu",
                                             f"domain-{domain_id}")
        for core in self.cores:
            core.domain = self
        if self.tracer.enabled:
            self.tracer.counter(self.trace_track,
                                f"freq_ghz.domain{domain_id}",
                                sim.now, freq_ghz=self.freq)

    @property
    def freq(self) -> float:
        """The domain's operating frequency (all members agree)."""
        return self.cores[0].freq

    def member_ids(self) -> Tuple[int, ...]:
        return tuple(core.core_id for core in self.cores)

    # ------------------------------------------------------------------
    # Coordination
    # ------------------------------------------------------------------
    def request(self, core: "Core", freq_ghz: float) -> None:
        """File ``core``'s vote and re-resolve the shared register.

        The paper's SetProcessorFreq (and the OS governors) choose a
        frequency *for one core*; under a shared domain that choice is
        a request, not a command.  Same-frequency re-votes are cheap
        (the resolve short-circuits) but never skipped --- a stale vote
        is exactly the coordination bug shared domains introduce.
        """
        if freq_ghz not in core.pstates:
            raise ValueError(
                f"{freq_ghz} GHz not in core {core.core_id}'s "
                f"P-state table")
        self.votes[core.core_id] = freq_ghz
        self._resolve()

    def projected_frequency(self, core: "Core", freq_ghz: float) -> float:
        """What the domain would run at if ``core`` voted ``freq_ghz``.

        The domain-aware analogue of
        :meth:`Core.achievable_frequency`: DVFS-write verification
        compares against this, so a sibling's higher vote (or a shared
        throttle clamp) is never mistaken for a failed write.
        """
        votes = dict(self.votes)
        votes[core.core_id] = freq_ghz
        return self._clamped(max(votes.values()))

    def _clamped(self, target_ghz: float) -> float:
        """Clamp ``target_ghz`` by the most-throttled member: one rail,
        one clock --- the hottest core limits everyone."""
        return min(c.achievable_frequency(target_ghz) for c in self.cores)

    def _resolve(self) -> None:
        target_ghz = self._clamped(max(self.votes.values()))
        old_ghz = self.freq
        if abs(target_ghz - old_ghz) > 1e-12:
            self.transitions += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    self.trace_track, "pstate:transition", self.sim.now,
                    old_ghz=old_ghz, new_ghz=target_ghz,
                    pstate=self.cores[0].pstates.state_label(target_ghz),
                    members=len(self.cores))
                self.tracer.counter(
                    self.trace_track, f"freq_ghz.domain{self.domain_id}",
                    self.sim.now, freq_ghz=target_ghz)
            for core in self.cores:
                core.set_frequency(target_ghz)
        if self.sanitize:
            self.sanitize_check()

    # ------------------------------------------------------------------
    # simsan
    # ------------------------------------------------------------------
    def sanitize_check(self) -> None:
        """Verify the domain's invariants.

        * **domain-coherence** --- every member core runs at the same
          frequency (they share one P-state register);
        * **domain-max-rule** --- that frequency is the maximum of the
          member votes, clamped only by an active throttle ceiling
          (never below a vote without a ceiling to blame).
        """
        freq_ghz = self.freq
        for core in self.cores:
            invariant(abs(core.freq - freq_ghz) < 1e-12,
                      "domain-coherence",
                      "cores of one frequency domain run at different "
                      "frequencies",
                      domain_id=self.domain_id, core_id=core.core_id,
                      core_freq=core.freq, domain_freq=freq_ghz,
                      now=self.sim.now)
        expected_ghz = self._clamped(max(self.votes.values()))
        invariant(abs(freq_ghz - expected_ghz) < 1e-12,
                  "domain-max-rule",
                  "domain frequency is not the clamped max of member "
                  "votes",
                  domain_id=self.domain_id, domain_freq=freq_ghz,
                  expected=expected_ghz,
                  votes=dict(sorted(self.votes.items())),
                  now=self.sim.now)


__all__ = [
    "CORES_PER_MODULE", "CORES_PER_SOCKET", "FrequencyDomain",
    "GRANULARITIES", "SocketTopology", "make_topology",
]
