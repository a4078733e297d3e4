"""Elastic node autoscaling: park-or-boot from windowed fleet load.

POLARIS races or paces individual cores; the :class:`ElasticController`
plays the same game one tier up, with whole nodes.  Every
``CONTROLLER_INTERVAL_S`` it differentiates each shard's cumulative
arrival counter into a windowed arrival rate, normalizes by the shard's
*currently serving* capacity (active nodes x per-node peak throughput),
and compares the utilization against two thresholds:

* above ``SCALE_OUT_UTILIZATION`` --- unpark one parked replica (boot
  latency drawn from the seeded lifecycle stream; the node serves
  nothing and saves nothing until it finishes warming);
* below ``SCALE_IN_UTILIZATION`` --- drain one active replica, moving
  its queued requests onto shard siblings before it parks with the
  same :mod:`repro.db.server` helpers the faults watchdog migrates with.

Hysteresis is the gap between the two thresholds plus a per-shard
cooldown after any action; at most one replica per shard is in motion
(warming or draining) at a time.  Primaries are never parked ---
a shard must always accept writes.
"""

from __future__ import annotations

import random
from typing import Deque, Dict, List, Optional

from collections import deque

from repro.db.server import drain_worker_queue, redistribute_requests
from repro.fleet.config import FleetConfig
from repro.fleet.node import BOOT_LATENCY_S, Fleet, Node, NodeState
from repro.fleet.router import ClusterRouter, ShardState
from repro.sim.engine import Event, Simulator

#: Deterministic ordering of the action counters.
_ACTIONS = ("scale_out", "scale_in", "migrations", "migrated_requests")

#: Controller tick cadence on the virtual clock.
CONTROLLER_INTERVAL_S = 0.5
#: Window of per-tick arrival counts the utilization signal averages.
CONTROLLER_WINDOW_TICKS = 4
#: Windowed utilization (arrivals / active capacity) thresholds; the
#: gap between them plus the cooldown is the hysteresis.
SCALE_OUT_UTILIZATION = 0.55
SCALE_IN_UTILIZATION = 0.20
#: Ticks a shard stays quiet after any scale action.
CONTROLLER_COOLDOWN_TICKS = 3
#: Grace between entering draining and the first park attempt, and the
#: poll cadence while a draining node finishes its in-flight work.
DRAIN_GRACE_S = 0.5
DRAIN_POLL_S = 0.05


class ElasticController:
    """Adds and parks replicas from the windowed per-shard load."""

    def __init__(self, sim: Simulator, fleet: Fleet, router: ClusterRouter,
                 config: FleetConfig, per_node_peak_tps: float,
                 lifecycle_rng: random.Random):
        self.sim = sim
        self.fleet = fleet
        self.router = router
        self.config = config
        self.per_node_peak_tps = per_node_peak_tps
        self.lifecycle_rng = lifecycle_rng
        self.actions: Dict[str, int] = {name: 0 for name in _ACTIONS}
        self._windows: List[Deque[int]] = [
            deque(maxlen=CONTROLLER_WINDOW_TICKS)
            for _ in router.shards]
        self._last_offered = [shard.offered for shard in router.shards]
        self._cooldown = [0 for _ in router.shards]
        self._tick_event = None
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("fleet", "controller")

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._tick_event = self.sim.schedule(
            CONTROLLER_INTERVAL_S, self._tick)

    def stop(self) -> None:
        if self._tick_event is not None:
            Event.cancel(self._tick_event)
            self._tick_event = None

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        for index, shard in enumerate(self.router.shards):
            self._consider(index, shard)
        self._tick_event = self.sim.schedule(
            CONTROLLER_INTERVAL_S, self._tick)

    def shard_utilization(self, index: int, shard: ShardState) -> float:
        """Windowed arrival rate over currently-serving capacity."""
        window = self._windows[index]
        window_s = len(window) * CONTROLLER_INTERVAL_S
        serving = len(shard.active_nodes())
        if window_s <= 0 or serving == 0:
            return 0.0
        rate_tps = sum(window) / window_s
        return rate_tps / (serving * self.per_node_peak_tps)

    def _consider(self, index: int, shard: ShardState) -> None:
        window = self._windows[index]
        window.append(shard.offered - self._last_offered[index])
        self._last_offered[index] = shard.offered
        if self._cooldown[index] > 0:
            self._cooldown[index] -= 1
            return
        if len(window) < window.maxlen:
            return  # not enough signal yet
        in_motion = any(r.state in (NodeState.WARMING, NodeState.DRAINING)
                        for r in shard.replicas)
        if in_motion:
            return  # one replica per shard in motion at a time
        utilization = self.shard_utilization(index, shard)
        if utilization > SCALE_OUT_UTILIZATION:
            self._scale_out(index, shard, utilization)
        elif utilization < SCALE_IN_UTILIZATION:
            self._scale_in(index, shard, utilization)

    # ------------------------------------------------------------------
    def _scale_out(self, index: int, shard: ShardState,
                   utilization: float) -> None:
        parked = next((r for r in shard.replicas
                       if r.state is NodeState.PARKED), None)
        if parked is None:
            return  # peak-provisioned already
        boot_s = self.lifecycle_rng.uniform(*BOOT_LATENCY_S)
        parked.unpark(boot_s)
        self.actions["scale_out"] += 1
        self._cooldown[index] = CONTROLLER_COOLDOWN_TICKS
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "elastic:scale-out",
                                self.sim.now, shard=shard.shard_id,
                                node=parked.node_id, boot_s=boot_s,
                                utilization=utilization)

    def _scale_in(self, index: int, shard: ShardState,
                  utilization: float) -> None:
        active = [r for r in shard.replicas
                  if r.state is NodeState.ACTIVE]
        if len(active) <= self.config.min_active_replicas:
            return
        if shard.primary.state is not NodeState.ACTIVE and len(active) <= 1:
            # The primary is crashed (a primary is never warming: a
            # failover boots a replica and promotes it once active):
            # this replica is the shard's only serving node --- and
            # the only promotion candidate.  Parking it would strand
            # the shard, so scale-in waits for failover's new primary.
            return
        victim = active[-1]
        victim.begin_drain(self._migrate_off, DRAIN_GRACE_S, DRAIN_POLL_S)
        self.actions["scale_in"] += 1
        self._cooldown[index] = CONTROLLER_COOLDOWN_TICKS
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "elastic:scale-in",
                                self.sim.now, shard=shard.shard_id,
                                node=victim.node_id,
                                utilization=utilization)

    # ------------------------------------------------------------------
    def _migrate_off(self, node: Node) -> None:
        """Drain a parking node's queues onto its shard siblings.

        Reuses the faults-tier machinery (pop via the dispatcher,
        round-robin ``receive_migrated`` so EDF queues re-sort), then
        moves each migrated request's ``submitted`` credit from the
        source server to its adoptive one --- per-node books stay
        balanced and the fleet-scope sum is untouched, which
        :meth:`Fleet.sanitize_accounting` audits after every migration
        under simsan.
        """
        requests = []
        for worker in node.server.workers:
            requests.extend(drain_worker_queue(worker))
        if not requests:
            return
        shard = self.router.shards[node.shard_id]
        targets = shard.active_nodes()
        if not targets:
            raise RuntimeError(
                f"shard {node.shard_id} has no active node to adopt "
                f"{len(requests)} migrated requests (primary state: "
                f"{shard.primary.state.value})")
        target_workers = [w for n in targets for w in n.server.workers]
        redistribute_requests(requests, target_workers)
        node.server.submitted -= len(requests)
        for offset in range(len(requests)):
            target_workers[offset % len(target_workers)] \
                .server.submitted += 1
        self.actions["migrations"] += 1
        self.actions["migrated_requests"] += len(requests)
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "elastic:migration",
                                self.sim.now, source=node.node_id,
                                moved=len(requests),
                                targets=len(target_workers))
        if self.sim.sanitize:
            self.fleet.sanitize_accounting()


__all__ = ["ElasticController"]
