"""Primary failover: heartbeat detection, promotion, WAL replay.

The recovery half of the fleet failure model (chaos is the other half,
:mod:`repro.fleet.chaos`).  A :class:`FailoverManager` heartbeats every
shard on the virtual clock; a shard whose primary has been crashed for
at least ``HEARTBEAT_TIMEOUT_S`` at a tick is *detected*, and failover
begins:

1. **Elect** the most-caught-up active replica --- highest applied LSN
   per the shard's :class:`~repro.fleet.router.ShardReplication`, which
   the router's freshness check reads too (a slow follower's extra lag
   and a partition count here as they do there), ties to the lowest
   node id (deterministic).  If no replica is active but one is parked,
   a warm spare is booted first and the election re-runs when it comes
   up.
2. **Replay** the elected replica's durable WAL prefix (redo-only).
   The replay costs ``REPLAY_FIXED_S + REPLAY_PER_RECORD_S * records``
   of virtual time --- the dominant term of MTTR after detection.
   Durable commits beyond the replica's applied prefix were never
   shipped; they are counted lost and trimmed
   (:meth:`ShardReplication.promote_to`).
3. **Promote**: the replica becomes the shard's primary (zero apply
   lag), the corpse is demoted into the replica list, and the shard's
   write path is open again.

Every step lands on the :attr:`FailoverManager.timeline` --- byte-
identical across same-seed runs, which the determinism gate pins ---
and inside an async ``failover`` trace span per shard.

:class:`AvailabilityTracker` measures the cost: per-shard outage
windows (primary crash -> promotion complete, or end of run for the
no-failover baseline), from which the experiment derives availability,
MTTR, and the p99.9-during-failover tail.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.fleet.node import BOOT_LATENCY_S, Fleet, Node, NodeState, REPLICA
from repro.fleet.router import ShardState
from repro.sim.engine import Event, Simulator

#: Heartbeat cadence on the virtual clock; a crash is detected on the
#: first tick at least ``HEARTBEAT_TIMEOUT_S`` after it.
HEARTBEAT_INTERVAL_S = 0.05
HEARTBEAT_TIMEOUT_S = 0.2
#: Promotion replays the caught-up durable WAL prefix on the new
#: primary: a fixed mount/analysis cost plus a per-record redo cost.
REPLAY_FIXED_S = 0.05
REPLAY_PER_RECORD_S = 0.0002


class AvailabilityTracker:
    """Per-shard write-path outage windows on the virtual clock."""

    def __init__(self, sim: Simulator, shard_ids: List[int]):
        self.sim = sim
        self._down_since: Dict[int, Optional[float]] = {
            shard_id: None for shard_id in shard_ids}
        #: Closed outage windows: (shard_id, start_s, end_s).
        self.windows: List[Tuple[int, float, float]] = []

    def mark_down(self, shard_id: int) -> None:
        if self._down_since[shard_id] is None:
            self._down_since[shard_id] = self.sim.now

    def mark_up(self, shard_id: int) -> None:
        start_s = self._down_since[shard_id]
        if start_s is not None:
            self.windows.append((shard_id, start_s, self.sim.now))
            self._down_since[shard_id] = None

    def outage_windows(self, end_s: float) -> List[Tuple[int, float, float]]:
        """All windows, still-open outages clipped at ``end_s``."""
        windows = list(self.windows)
        for shard_id in sorted(self._down_since):
            start_s = self._down_since[shard_id]
            if start_s is not None and start_s < end_s:
                windows.append((shard_id, start_s, end_s))
        return windows

    def availability(self, start_s: float,
                     end_s: float) -> Dict[int, float]:
        """Fraction of ``[start_s, end_s)`` each shard's write path was
        up (1.0 when the window is empty)."""
        duration = end_s - start_s
        downtime: Dict[int, float] = {
            shard_id: 0.0 for shard_id in self._down_since}
        for shard_id, w_start, w_end in self.outage_windows(end_s):
            overlap = min(w_end, end_s) - max(w_start, start_s)
            if overlap > 0:
                downtime[shard_id] += overlap
        if duration <= 0:
            return {shard_id: 1.0 for shard_id in downtime}
        return {shard_id: 1.0 - down / duration
                for shard_id, down in sorted(downtime.items())}


class FailoverManager:
    """Detects crashed primaries and promotes caught-up replicas."""

    def __init__(self, sim: Simulator, fleet: Fleet,
                 shards: List[ShardState],
                 tracker: AvailabilityTracker,
                 lifecycle_rng: random.Random):
        self.sim = sim
        self.fleet = fleet
        self.shards = shards
        self.tracker = tracker
        #: Boot latencies for warm spares booted mid-failover; a
        #: dedicated stream ("fleet-failover") so the elastic
        #: controller's draw sequence is untouched by failovers.
        self.lifecycle_rng = lifecycle_rng
        #: (time_s, shard_id, event, node_id) --- the failover
        #: timeline; byte-identical across same-seed runs.
        self.timeline: List[Tuple[float, int, str, int]] = []
        self.mttr_samples: List[float] = []
        self.failovers = 0
        self.records_replayed = 0
        self._in_progress: Dict[int, bool] = {}
        self._tick_event = None
        self.tracer = sim.tracer
        self.trace_track = self.tracer.track("fleet", "failover")

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._tick_event = self.sim.schedule(
            HEARTBEAT_INTERVAL_S, self._tick)

    def stop(self) -> None:
        if self._tick_event is not None:
            Event.cancel(self._tick_event)
            self._tick_event = None

    @property
    def mean_mttr_s(self) -> float:
        """Mean crash -> promotion-complete time (0.0 before any)."""
        if not self.mttr_samples:
            return 0.0
        return sum(self.mttr_samples) / len(self.mttr_samples)

    def _event(self, shard: ShardState, event: str, node_id: int) -> None:
        now_s = self.sim.now
        self.timeline.append((now_s, shard.shard_id, event, node_id))
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, f"failover:{event}",
                                now_s, shard=shard.shard_id,
                                node=node_id)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now_s = self.sim.now
        for shard in self.shards:
            primary = shard.primary
            if primary.state is not NodeState.CRASHED:
                continue
            if self._in_progress.get(shard.shard_id):
                continue
            assert primary.crashed_at_s is not None
            if now_s - primary.crashed_at_s >= HEARTBEAT_TIMEOUT_S:
                self._detect(shard)
        self._tick_event = self.sim.schedule(
            HEARTBEAT_INTERVAL_S, self._tick)

    def _detect(self, shard: ShardState) -> None:
        self._in_progress[shard.shard_id] = True
        if self.tracer.enabled:
            self.tracer.async_begin("fleet", f"failover-{shard.shard_id}",
                                    "failover", self.sim.now,
                                    shard=shard.shard_id)
        self._event(shard, "detected", shard.primary.node_id)
        self._elect(shard)

    def _elect(self, shard: ShardState) -> None:
        replication = shard.replication
        now_s = self.sim.now
        candidates = [r for r in shard.replicas
                      if r.state is NodeState.ACTIVE]
        if not candidates:
            spare = next((r for r in shard.replicas
                          if r.state is NodeState.PARKED), None)
            if spare is None:
                # Nothing active, nothing to boot: the shard stays down
                # (recorded once; the outage runs to end of run).
                self._event(shard, "stranded", -1)
                return
            boot_s = self.lifecycle_rng.uniform(*BOOT_LATENCY_S)
            self._event(shard, "boot-spare", spare.node_id)
            spare.unpark(boot_s, on_active=lambda _node:
                         self._elect(shard))
            return
        # Most caught-up wins; ties to the lowest node id (negated in
        # the max key) --- fully deterministic.
        winner = max(candidates,
                     key=lambda node: (replication.applied_lsn(node, now_s),
                                       -node.node_id))
        records = replication.promote_to(winner, now_s)
        self.records_replayed += records
        replay_s = REPLAY_FIXED_S + REPLAY_PER_RECORD_S * records
        self._event(shard, "replay", winner.node_id)
        self.sim.schedule(replay_s,
                          lambda: self._finish(shard, winner))

    def _finish(self, shard: ShardState, winner: Node) -> None:
        if winner.state is not NodeState.ACTIVE:
            # The winner died (or was drained) during its replay:
            # re-run the election.
            self._event(shard, "re-elect", winner.node_id)
            self._elect(shard)
            return
        corpse = shard.primary
        winner.promote()
        shard.replicas.remove(winner)
        corpse.role = REPLICA
        shard.replicas.append(corpse)
        shard.primary = winner
        assert corpse.crashed_at_s is not None
        self.mttr_samples.append(self.sim.now - corpse.crashed_at_s)
        self.failovers += 1
        self._in_progress[shard.shard_id] = False
        self.tracker.mark_up(shard.shard_id)
        self._event(shard, "promoted", winner.node_id)
        if self.tracer.enabled:
            self.tracer.async_end("fleet", f"failover-{shard.shard_id}",
                                  "failover", self.sim.now,
                                  new_primary=winner.node_id)


__all__ = ["AvailabilityTracker", "FailoverManager"]
