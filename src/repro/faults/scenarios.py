"""The named chaos-scenario library.

Each scenario is a :class:`~repro.faults.plan.FaultPlan` factory with
windows sized for the harness's default timelines: faults open at 0.5 s
(inside even the shortest test phases the suite runs) and persist to
6.0 s (past the figure runs' test end), so every measurement window
observes the fault in steady state.

Compose scenarios with ``+``: ``scenario_named("burst+brownout")``
merges the plans (the union of their faults and of their armed
degradation mechanisms).  The CLI and ``ExperimentConfig(faults="name")``
both accept these strings, as does ``REPRO_FAULTS``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.faults.plan import (
    BurstSpec, DegradationPolicy, FaultPlan, MsrFaultSpec, NodeCrashSpec,
    PartitionSpec, ReplicaLagSpec, StallSpec, ThrottleSpec,
)

_START_S = 0.5
_END_S = 6.0

#: Fleet chaos opens later: node crashes at 1.5 s so every fleet cell's
#: measurement window (warmup 0.5--1.0 s) is already open when the
#: primaries die, and the failover timeline lands inside it.
_CRASH_AT_S = 1.5


def burst() -> FaultPlan:
    """Overload: offered load nearly doubles; shedding keeps queues
    bounded so admitted requests still meet deadlines."""
    return FaultPlan(
        bursts=(BurstSpec(_START_S, _END_S, multiplier=1.8),),
        degradation=DegradationPolicy(shed=True),
        name="burst")


def brownout() -> FaultPlan:
    """Thermal throttling: every core capped at 1.6 GHz.  No degradation
    can buy frequency back, so this is a pure stress scenario."""
    return FaultPlan(
        throttles=(ThrottleSpec(_START_S, _END_S, ceiling_ghz=1.6),),
        name="brownout")


def sticky_pstate() -> FaultPlan:
    """Flaky DVFS: 30% of P-state writes are silently dropped, pinning
    cores at stale frequencies; bounded retry re-applies the target."""
    return FaultPlan(
        msr_faults=(MsrFaultSpec(_START_S, _END_S, mode="stuck",
                                 probability=0.3),),
        degradation=DegradationPolicy(retry=True),
        name="sticky-pstate")


def dying_core() -> FaultPlan:
    """Worker 0's core freezes mid-run and never recovers.  The watchdog
    quarantines it and migrates its queue; panic mode pins survivors to
    the maximum frequency while the miss rate is elevated; shedding keeps
    the survivors' queues bounded, since they now absorb the dead
    worker's share of the arrivals on top of their own."""
    return FaultPlan(
        stalls=(StallSpec(at_s=_START_S, duration_s=None, workers=(0,)),),
        degradation=DegradationPolicy(watchdog=True, shed=True, panic=True),
        name="dying-core")


def shard_crash() -> FaultPlan:
    """Crash-per-shard: every shard's primary fail-stops at 1.5 s.

    Fleet cells only.  With failover enabled the heartbeat detects each
    crash, promotes the most-caught-up replica after a durable-WAL
    replay, and the fleet ends with zero unserved shards; without
    failover every shard's write path is dead for the rest of the run
    --- the availability contrast the acceptance test pins.
    """
    return FaultPlan(node_crashes=(NodeCrashSpec(at_s=_CRASH_AT_S),),
                     name="shard-crash")


def partition() -> FaultPlan:
    """Replication partition: every shard's replicas stop applying for
    [1.5 s, 6 s), so every key written in the window is stale on them
    until the partition heals."""
    return FaultPlan(partitions=(PartitionSpec(_CRASH_AT_S, _END_S),),
                     name="partition")


def slow_follower() -> FaultPlan:
    """Slow follower: every replica's apply lag grows by 250 ms during
    [0.5 s, 6 s) --- the overloaded-apply-thread brownout, milder than a
    partition."""
    return FaultPlan(
        replica_lags=(ReplicaLagSpec(_START_S, _END_S,
                                     extra_lag_s=0.25),),
        name="slow-follower")


#: name -> plan factory.  Factories (not instances) so callers can never
#: mutate the library's plans (FaultPlan is frozen, but its tuples are
#: rebuilt fresh per call anyway).
SCENARIOS: Dict[str, Callable[[], FaultPlan]] = {
    "burst": burst,
    "brownout": brownout,
    "sticky-pstate": sticky_pstate,
    "dying-core": dying_core,
}

#: Fleet-scope scenarios, kept out of :data:`SCENARIOS` because they
#: only run in fleet cells (a single-server cell rejects their plans);
#: :func:`scenario_named` resolves both registries.
FLEET_SCENARIOS: Dict[str, Callable[[], FaultPlan]] = {
    "shard-crash": shard_crash,
    "partition": partition,
    "slow-follower": slow_follower,
}


def scenario_names() -> Tuple[str, ...]:
    """Single-server scenario names (every one runs in a plain cell)."""
    return tuple(sorted(SCENARIOS))


def fleet_scenario_names() -> Tuple[str, ...]:
    """Fleet-only scenario names (need ``config.fleet`` to run)."""
    return tuple(sorted(FLEET_SCENARIOS))


def scenario_named(spec: str) -> FaultPlan:
    """Resolve ``"burst"`` or a ``+``-composition like
    ``"burst+brownout"`` into one merged plan."""
    parts = [part.strip() for part in spec.split("+") if part.strip()]
    if not parts:
        raise ValueError(f"empty fault-scenario spec {spec!r}")
    plans = []
    for part in parts:
        factory = SCENARIOS.get(part) or FLEET_SCENARIOS.get(part)
        if factory is None:
            known = scenario_names() + fleet_scenario_names()
            raise ValueError(
                f"unknown fault scenario {part!r}; known scenarios: "
                f"{', '.join(known)}")
        plans.append(factory())
    merged = plans[0]
    for plan in plans[1:]:
        merged = merged.merged_with(plan)
    return merged


__all__ = ["FLEET_SCENARIOS", "SCENARIOS", "brownout", "burst",
           "dying_core", "fleet_scenario_names", "partition",
           "scenario_named", "scenario_names", "shard_crash",
           "slow_follower", "sticky_pstate"]
