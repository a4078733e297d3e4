"""Fault plans: the declarative description of what breaks, and when.

A :class:`FaultPlan` is pure data --- a list of timed fault windows plus
a :class:`DegradationPolicy` describing which graceful-degradation
mechanisms are armed.  The :mod:`repro.faults.injector` turns the plan
into simulator events; nothing here touches simulation state, so a plan
can be hashed, serialized, and compared without running anything.

Enable contract (same shape as simsan / tracing):

* Environment: ``REPRO_FAULTS=<scenario-name-or-json-path>`` applies a
  plan to every experiment that does not set one explicitly.
* Per run: ``ExperimentConfig(faults=FaultPlan(...))`` --- or a scenario
  name / JSON path string --- overrides the environment in either
  direction (``faults=None`` defers to the environment; there is no
  env-set-but-force-off spelling because an *empty* plan is inert by
  construction and serves that purpose).

Determinism: a plan is part of the experiment's identity.  Two runs
with the same ``(config, seed, plan)`` are byte-identical; the sweep
cache salts its keys with the :meth:`FaultPlan.fingerprint` of the plan
in force so faulted results can never masquerade as healthy ones.

All times are virtual-clock **seconds**, absolute from simulation start
(warmup included), matching the engine convention.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import (
    Dict, Optional, Tuple, Union, get_args, get_origin, get_type_hints,
)

#: Environment variable naming a scenario (or a JSON plan file) that
#: applies to every experiment not configured explicitly.
FAULTS_ENV = "REPRO_FAULTS"


@dataclass(frozen=True)
class MsrFaultSpec:
    """DVFS write failures at the ``MsrFile.write`` boundary.

    During ``[start_s, end_s)`` a write to ``IA32_PERF_CTL`` on an
    affected worker either raises :class:`~repro.cpu.msr.MsrError`
    (``mode="error"``) or is silently dropped, pinning the core at its
    current P-state (``mode="stuck"`` --- the firmware-eats-the-write
    failure).  ``probability`` < 1 makes individual writes fail with
    that chance, drawn from the injector's dedicated RNG stream.
    """

    start_s: float
    end_s: float
    mode: str = "error"  # "error" | "stuck"
    #: Affected worker ids; empty tuple means every worker.
    workers: Tuple[int, ...] = ()
    probability: float = 1.0

    def __post_init__(self):
        if self.mode not in ("error", "stuck"):
            raise ValueError(f"unknown MSR fault mode {self.mode!r}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class ThrottleSpec:
    """A thermal-throttle envelope: frequencies capped below a ceiling.

    During ``[start_s, end_s)`` the affected cores cannot operate above
    ``ceiling_ghz``: requests for higher P-states are clamped to the
    fastest table frequency at or below the ceiling, and a core already
    running hotter is stepped down when the window opens.
    """

    start_s: float
    end_s: float
    ceiling_ghz: float = 1.6
    workers: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.ceiling_ghz <= 0:
            raise ValueError("ceiling must be positive")
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class StallSpec:
    """A core freeze: the worker stops making progress at ``at_s``.

    ``duration_s`` bounds the stall (a contention/SMI-style hiccup);
    ``None`` means the core never recovers --- the dying-core scenario.
    A stalled core banks the progress of its in-flight transaction and
    resumes it (if ever) where it left off.
    """

    at_s: float
    duration_s: Optional[float] = None
    workers: Tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError("stall time cannot be negative")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("stall duration must be positive (or None)")


@dataclass(frozen=True)
class BurstSpec:
    """An arrival burst: offered load multiplied during a window."""

    start_s: float
    end_s: float
    multiplier: float = 2.0

    def __post_init__(self):
        if self.multiplier <= 0:
            raise ValueError("burst multiplier must be positive")
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class SkewSpec:
    """Estimator misprediction: ``mu(c, f)`` scaled during a window.

    ``factor`` < 1 makes POLARIS optimistic (it under-provisions and
    misses deadlines); > 1 makes it pessimistic (it over-provisions and
    burns power).
    """

    start_s: float
    end_s: float
    factor: float = 0.5

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("skew factor must be positive")
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class NodeCrashSpec:
    """Fail-stop crash of fleet nodes at ``at_s`` (fleet cells only).

    A crashed node stops cold: its in-flight and queued requests die
    with it, its wall draw drops to zero, and the buffered-but-unforced
    tail of its shard's WAL is lost
    (``ShardReplication.on_primary_crash``) --- the
    group-commit window is exactly the durability hole this spec
    exposes.  ``nodes`` names target node ids; the empty tuple means
    the *primary of every shard* (the crash-per-shard chaos plan the
    acceptance test pins).
    """

    at_s: float
    nodes: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError("crash time cannot be negative")


@dataclass(frozen=True)
class PartitionSpec:
    """Replication partition: replicas stop acking during a window.

    During ``[start_s, end_s)`` the affected shards' replicas apply
    nothing new --- their applied-LSN freezes and their effective lag
    grows without bound, so every read routed to them is stale and
    bounces (or is served degraded when the primary is down).  The
    partition heals at ``end_s``.  ``shards`` names affected shard ids;
    empty means every shard.
    """

    start_s: float
    end_s: float
    shards: Tuple[int, ...] = ()

    def __post_init__(self):
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class ReplicaLagSpec:
    """Slow follower: extra apply lag on replicas during a window.

    ``extra_lag_s`` is added on top of each affected replica's seeded
    base lag --- the overloaded-apply-thread failure mode, milder than
    a partition.  ``nodes`` names affected node ids; empty means every
    replica.
    """

    start_s: float
    end_s: float
    extra_lag_s: float = 0.25
    nodes: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.extra_lag_s <= 0:
            raise ValueError("extra lag must be positive")
        _check_window(self.start_s, self.end_s)


def _build(spec_cls, entry: object, where: str):
    """``spec_cls(**entry)`` for one JSON object of a plan, with every
    way it can fail reported as a :class:`ValueError` naming ``where``."""
    if not isinstance(entry, dict):
        raise ValueError(
            f"fault plan {where} must be an object, not "
            f"{type(entry).__name__}")
    hints = get_type_hints(spec_cls)
    try:
        # JSON round-trips the id tuples (workers/nodes/shards) as lists.
        return spec_cls(**{
            key: tuple(value) if get_origin(hints.get(key)) is tuple
            else value for key, value in entry.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"fault plan {where}: {exc}") from None


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0 or end_s <= start_s:
        raise ValueError(
            f"fault window [{start_s}, {end_s}) must be non-negative "
            f"and non-empty")


@dataclass(frozen=True)
class DegradationPolicy:
    """Which graceful-degradation mechanisms are armed, with thresholds.

    Everything defaults to *off* so ``DegradationPolicy()`` (and hence
    ``FaultPlan()``) is inert --- attaching an empty plan must be
    bit-identical to not attaching one.
    """

    #: Bounded retry of failed/ineffective MSR writes: attempts beyond
    #: the first, 0 disables.  Retry ``k`` fires ``retry_backoff_s *
    #: 2**k`` seconds after the failure (deterministic exponential
    #: backoff on the virtual clock); after the last retry the worker
    #: falls back to the nearest achievable lower P-state.
    msr_retry_limit: int = 0
    retry_backoff_s: float = 0.001
    #: Virtual-time watchdog cadence; None disables the watchdog.
    watchdog_interval_s: Optional[float] = None
    #: A core stalled longer than this is declared dead: its queued
    #: requests migrate to healthy workers (EDF re-sorted) and the
    #: worker is quarantined from routing.
    watchdog_stall_threshold_s: float = 0.05
    #: Admission control: shed arrivals routed to a worker whose queue
    #: is already this deep; None disables shedding.
    shed_queue_depth: Optional[int] = None
    #: Panic mode: when the windowed deadline-miss rate crosses
    #: ``panic_enter_miss_rate`` the surviving cores pin to the maximum
    #: frequency, exiting (hysteretically) only once the rate falls to
    #: ``panic_exit_miss_rate``.  None disables panic mode.
    panic_enter_miss_rate: Optional[float] = None
    panic_exit_miss_rate: float = 0.05
    #: Completions in the panic-mode sliding window.
    panic_window: int = 50

    def __post_init__(self):
        if self.msr_retry_limit < 0:
            raise ValueError("retry limit cannot be negative")
        if self.retry_backoff_s <= 0:
            raise ValueError("retry backoff must be positive")
        if self.watchdog_interval_s is not None \
                and self.watchdog_interval_s <= 0:
            raise ValueError("watchdog interval must be positive")
        if self.watchdog_stall_threshold_s <= 0:
            raise ValueError("watchdog stall threshold must be positive")
        if self.shed_queue_depth is not None and self.shed_queue_depth < 1:
            raise ValueError("shed queue depth must be >= 1")
        if self.panic_enter_miss_rate is not None:
            if not 0.0 < self.panic_enter_miss_rate <= 1.0:
                raise ValueError("panic enter rate must be in (0, 1]")
            if not 0.0 <= self.panic_exit_miss_rate \
                    < self.panic_enter_miss_rate:
                raise ValueError(
                    "panic exit rate must be below the enter rate "
                    "(hysteresis)")
        if self.panic_window < 1:
            raise ValueError("panic window must be >= 1")

    @property
    def any_enabled(self) -> bool:
        return bool(self.msr_retry_limit
                    or self.watchdog_interval_s is not None
                    or self.shed_queue_depth is not None
                    or self.panic_enter_miss_rate is not None)


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic chaos scenario: faults + degradation policy."""

    msr_faults: Tuple[MsrFaultSpec, ...] = ()
    throttles: Tuple[ThrottleSpec, ...] = ()
    stalls: Tuple[StallSpec, ...] = ()
    bursts: Tuple[BurstSpec, ...] = ()
    skews: Tuple[SkewSpec, ...] = ()
    #: Fleet-scope faults (fleet cells only; single-server cells reject
    #: plans carrying any of these).
    node_crashes: Tuple[NodeCrashSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    replica_lags: Tuple[ReplicaLagSpec, ...] = ()
    degradation: DegradationPolicy = field(default_factory=DegradationPolicy)
    #: Human-readable scenario name (reports and trace annotations).
    name: str = "custom"

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when attaching this plan cannot change a run."""
        return not (self.msr_faults or self.throttles or self.stalls
                    or self.bursts or self.skews or self.node_crashes
                    or self.partitions or self.replica_lags
                    or self.degradation.any_enabled)

    @property
    def has_fleet_faults(self) -> bool:
        """True when the plan carries cluster-scope faults (fleet only)."""
        return bool(self.node_crashes or self.partitions
                    or self.replica_lags)

    @property
    def has_server_faults(self) -> bool:
        """True when the plan carries single-server faults (bursts are
        load-side and run at either tier, so they count for neither)."""
        return bool(self.msr_faults or self.throttles or self.stalls
                    or self.skews)

    def merged_with(self, other: "FaultPlan") -> "FaultPlan":
        """Union of both plans' faults; ``other``'s degradation policy
        wins wherever it arms a mechanism this plan leaves off."""
        mine = self.degradation
        theirs = other.degradation
        degradation = DegradationPolicy(
            msr_retry_limit=max(mine.msr_retry_limit,
                                theirs.msr_retry_limit),
            retry_backoff_s=(theirs.retry_backoff_s
                             if theirs.msr_retry_limit
                             else mine.retry_backoff_s),
            watchdog_interval_s=(theirs.watchdog_interval_s
                                 if theirs.watchdog_interval_s is not None
                                 else mine.watchdog_interval_s),
            watchdog_stall_threshold_s=(
                theirs.watchdog_stall_threshold_s
                if theirs.watchdog_interval_s is not None
                else mine.watchdog_stall_threshold_s),
            shed_queue_depth=(theirs.shed_queue_depth
                              if theirs.shed_queue_depth is not None
                              else mine.shed_queue_depth),
            panic_enter_miss_rate=(
                theirs.panic_enter_miss_rate
                if theirs.panic_enter_miss_rate is not None
                else mine.panic_enter_miss_rate),
            panic_exit_miss_rate=(
                theirs.panic_exit_miss_rate
                if theirs.panic_enter_miss_rate is not None
                else mine.panic_exit_miss_rate),
            panic_window=(theirs.panic_window
                          if theirs.panic_enter_miss_rate is not None
                          else mine.panic_window),
        )
        return FaultPlan(
            msr_faults=self.msr_faults + other.msr_faults,
            throttles=self.throttles + other.throttles,
            stalls=self.stalls + other.stalls,
            bursts=self.bursts + other.bursts,
            skews=self.skews + other.skews,
            node_crashes=self.node_crashes + other.node_crashes,
            partitions=self.partitions + other.partitions,
            replica_lags=self.replica_lags + other.replica_lags,
            degradation=degradation,
            name=f"{self.name}+{other.name}",
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from its ``to_dict`` form, or raise
        :class:`ValueError` naming the key that does not fit.

        The sections are read off the dataclass itself: a field typed
        ``Tuple[<X>Spec, ...]`` is a list of ``<X>Spec`` objects, so a
        spec class added to the plan cannot be left out here.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"fault plan must be a JSON object, not "
                f"{type(payload).__name__}")
        types = get_type_hints(cls)
        hints = {f.name: types[f.name] for f in fields(cls)}
        unknown = sorted(set(payload) - set(hints))
        if unknown:
            raise ValueError(
                f"unknown fault plan key(s) {', '.join(map(repr, unknown))}"
                f"; expected any of {', '.join(sorted(hints))}")
        kwargs: Dict[str, object] = {}
        for key, value in payload.items():
            hint = hints[key]
            if get_origin(hint) is tuple:
                if not isinstance(value, (list, tuple)):
                    raise ValueError(
                        f"fault plan key {key!r} must be a list of "
                        f"objects, not {type(value).__name__}")
                spec_cls = get_args(hint)[0]
                kwargs[key] = tuple(
                    _build(spec_cls, entry, f"{key}[{index}]")
                    for index, entry in enumerate(value))
            elif hint is DegradationPolicy:
                kwargs[key] = _build(DegradationPolicy, value, key)
            else:
                kwargs[key] = str(value)
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Stable content hash of the plan (cache-key salt)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: What an experiment may pass as its ``faults`` knob.
FaultsLike = Union[None, str, FaultPlan]


def resolve_fault_plan(faults: FaultsLike = None) -> Optional[FaultPlan]:
    """Resolve the plan for a run being constructed.

    An explicit :class:`FaultPlan` wins; a string names a scenario from
    the library (``"burst"``, ``"burst+brownout"``) or a JSON plan file
    path; ``None`` defers to the :data:`FAULTS_ENV` environment
    variable (unset or blank -> no faults).
    """
    if isinstance(faults, FaultPlan):
        return None if faults.is_empty else faults
    spec = faults if faults is not None \
        else os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    plan = _load_spec(spec)
    return None if plan.is_empty else plan


def _load_spec(spec: str) -> FaultPlan:
    if spec.endswith(".json") or os.path.sep in spec:
        with open(spec, "r", encoding="utf-8") as fh:
            return FaultPlan.from_json(fh.read())
    from repro.faults.scenarios import scenario_named  # cycle guard
    return scenario_named(spec)


__all__ = [
    "FAULTS_ENV", "BurstSpec", "DegradationPolicy", "FaultPlan",
    "FaultsLike", "MsrFaultSpec", "NodeCrashSpec", "PartitionSpec",
    "ReplicaLagSpec", "SkewSpec", "StallSpec", "ThrottleSpec",
    "resolve_fault_plan",
]
