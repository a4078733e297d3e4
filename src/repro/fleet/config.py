"""Fleet-tier configuration (the ``fleet`` field of ExperimentConfig).

Kept import-light on purpose: :mod:`repro.harness.experiment` embeds
:class:`FleetConfig` as a nested dataclass field, so this module must
not import the harness back.  Being a plain dataclass also means
``dataclasses.asdict`` reaches every knob, which salts the sweep-cache
key automatically --- a cached single-server result can never be served
for a fleet cell or vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class FleetConfig:
    """Shape and policy of one simulated fleet.

    A fleet is ``shards`` shards, each with one primary plus
    ``replicas_per_shard`` read replicas; every node wraps its own
    :class:`~repro.db.server.DatabaseServer` with ``node_workers``
    cores, all sharing one virtual clock.  Offered load is expressed
    exactly as in single-server cells --- fractions of peak throughput
    --- but against the *peak-provisioned* fleet (every node active),
    so elastic and static cells of the same shape see identical
    arrivals.
    """

    shards: int = 2
    replicas_per_shard: int = 1
    node_workers: int = 2
    node_request_handlers: int = 1

    # -- elasticity ----------------------------------------------------
    #: Run the ElasticController (scale-out/scale-in of replicas).
    elastic: bool = True
    #: Replicas per shard the controller may never park below.
    min_active_replicas: int = 0
    #: Static cells only (``elastic=False``): how many replicas per
    #: shard start active; the rest stay parked for the whole run.
    #: ``None`` means all of them (the static peak-provisioned fleet).
    static_active_replicas: Optional[int] = None

    # -- node lifecycle ------------------------------------------------
    #: Boot latency drawn uniformly from [min, max] per unpark (seeded).
    boot_latency_min_s: float = 1.5
    boot_latency_max_s: float = 4.0
    #: Grace between entering draining and the first park attempt.
    drain_grace_s: float = 0.5
    #: Poll cadence while waiting for a draining node's in-flight work.
    drain_poll_s: float = 0.05
    #: Wall draw of a parked node (fans + BMC; the idle-parked floor).
    parked_floor_watts: float = 4.0

    # -- failure model / failover (chaos cells) ------------------------
    #: Run the heartbeat detector + primary-failover machinery when the
    #: fault plan crashes nodes.  Off = the no-failover baseline: a
    #: crashed primary's shard sheds writes for the rest of the run.
    failover_enabled: bool = True
    #: Heartbeat cadence on the virtual clock; a crash is detected on
    #: the first tick at least ``heartbeat_timeout_s`` after it.
    heartbeat_interval_s: float = 0.05
    heartbeat_timeout_s: float = 0.2
    #: Promotion replays the caught-up durable WAL prefix on the new
    #: primary: a fixed mount/analysis cost plus a per-record redo cost.
    replay_fixed_s: float = 0.05
    replay_per_record_s: float = 0.0002
    #: Commits per group-commit force on each shard's primary WAL ---
    #: the durability window a crash can lose (Shore-MT's default is
    #: 100; fleet chaos cells default lower so the acceptance runs
    #: exercise real loss without needing thousands of writes).
    group_commit_size: int = 8

    # -- elastic controller --------------------------------------------
    controller_interval_s: float = 0.5
    #: Window of per-tick arrival counts the utilization signal averages.
    controller_window_ticks: int = 4
    #: Windowed utilization (arrivals / active capacity) thresholds;
    #: the gap between them plus the cooldown is the hysteresis.
    scale_out_utilization: float = 0.55
    scale_in_utilization: float = 0.20
    #: Ticks a shard stays quiet after any scale action.
    controller_cooldown_ticks: int = 3

    def validate(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.replicas_per_shard < 0:
            raise ValueError("replicas_per_shard cannot be negative")
        if self.node_workers < 1 or self.node_request_handlers < 1:
            raise ValueError("nodes need at least one worker and one RH")
        if not 0 <= self.min_active_replicas <= self.replicas_per_shard:
            raise ValueError("min_active_replicas out of range")
        if self.static_active_replicas is not None and not \
                0 <= self.static_active_replicas <= self.replicas_per_shard:
            raise ValueError("static_active_replicas out of range")
        if self.boot_latency_min_s < 0 \
                or self.boot_latency_max_s < self.boot_latency_min_s:
            raise ValueError("boot latency range is inverted")
        if self.drain_grace_s < 0 or self.drain_poll_s <= 0:
            raise ValueError("drain timings must be positive")
        if self.parked_floor_watts < 0:
            raise ValueError("parked floor cannot be negative")
        if self.controller_interval_s <= 0 \
                or self.controller_window_ticks < 1:
            raise ValueError("controller cadence must be positive")
        if not 0 <= self.scale_in_utilization < self.scale_out_utilization:
            raise ValueError("need scale_in < scale_out utilization "
                             "(the hysteresis band)")
        if self.controller_cooldown_ticks < 0:
            raise ValueError("cooldown cannot be negative")
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat cadence must be positive")
        if self.replay_fixed_s < 0 or self.replay_per_record_s < 0:
            raise ValueError("replay costs cannot be negative")
        if self.group_commit_size < 1:
            raise ValueError("group commit size must be >= 1")

    def static_replicas(self) -> int:
        """Replicas per shard a static fleet starts active."""
        return self.replicas_per_shard \
            if self.static_active_replicas is None \
            else self.static_active_replicas

    def provisioned_nodes(self) -> int:
        """Node count at peak provisioning (primaries + all replicas)."""
        return self.shards * (1 + self.replicas_per_shard)


__all__ = ["FleetConfig"]
