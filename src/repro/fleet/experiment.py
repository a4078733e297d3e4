"""The fleet plant: what a fleet-tier cell puts under the run loop.

A fleet cell measures a whole sharded/replicated cluster of
:class:`~repro.db.server.DatabaseServer` nodes behind a
:class:`~repro.fleet.router.ClusterRouter`, with (optionally) the
:class:`~repro.fleet.controller.ElasticController` parking and booting
replicas as the offered load breathes.  The methodology is the paper's
three phases, and :func:`repro.harness.experiment.run_experiment` is
its one implementation for both tiers: it builds the shared parts (one
estimator trained once --- every worker of every node reads it), drives
the phases and collects the result.  :class:`FleetPlant` is what
differs: the nodes and their router, the key draw in front of
``route``, the *fleet's* wall energy under the meter, chaos/failover
arming, per-shard books, and the fleet-only result fields.

Offered load is expressed against the **peak-provisioned** fleet
(every node active), so elastic and static cells of the same shape see
bit-identical arrival sequences --- the comparison the acceptance test
pins: elastic power strictly below static-peak power at equal-or-better
per-shard deadline-miss rates.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.request import Request
from repro.db.server import DatabaseServer
from repro.faults.plan import FaultPlan
from repro.fleet.chaos import FleetFaultInjector, ShardReplication
from repro.fleet.config import FleetConfig
from repro.fleet.controller import ElasticController
from repro.fleet.failover import AvailabilityTracker, FailoverManager
from repro.fleet.node import Fleet, Node, NodeState, PRIMARY, REPLICA
from repro.fleet.router import (
    ClusterRouter, RouterPolicy, ShardState, read_only_types,
)
from repro.harness.experiment import ExperimentConfig
from repro.metrics.latency import LatencyRecorder, percentile
from repro.obs.metrics import MetricRegistry
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _build_fleet(sim: Simulator, fleet_config: FleetConfig,
                 make_server: Callable[[], DatabaseServer],
                 streams: RandomStreams) -> Tuple[Fleet, List[ShardState]]:
    """Construct nodes and shards (``make_server`` also attaches an OS
    scheme's governors, node by node).

    Replication lags are drawn for every replica in build order from
    the seeded lifecycle stream, *before* any controller decision can
    consume from it --- elastic and static fleets of the same seed get
    identical lag assignments.
    """
    lifecycle_rng = streams.get("fleet-lifecycle")
    static_replicas = fleet_config.static_replicas()
    nodes: List[Node] = []
    shards: List[ShardState] = []
    for shard_id in range(fleet_config.shards):
        shard_members: List[Node] = []
        for replica_index in range(1 + fleet_config.replicas_per_shard):
            role = PRIMARY if replica_index == 0 else REPLICA
            lag_s = 0.0
            if role == REPLICA:
                lag_s = lifecycle_rng.uniform(
                    fleet_config.replication_lag_min_s,
                    fleet_config.replication_lag_max_s)
            start_parked = (role == REPLICA
                            and not fleet_config.elastic
                            and replica_index > static_replicas)
            node = Node(sim, len(nodes), shard_id, role, make_server(),
                        parked_floor_watts=fleet_config.parked_floor_watts,
                        replication_lag_s=lag_s,
                        start_parked=start_parked)
            shard_members.append(node)
            nodes.append(node)
        shards.append(ShardState(shard_id, shard_members[0],
                                 shard_members[1:]))
    return Fleet(sim, nodes), shards


class FleetPlant:
    """A sharded, replicated fleet under the experiment kernel (the
    plant contract is :class:`repro.harness.experiment.ServerPlant`'s)."""

    stream_prefix = "fleet-"

    def __init__(self, sim: Simulator, config: ExperimentConfig, scheme,
                 plan: Optional[FaultPlan], streams: RandomStreams,
                 make_server: Callable[[], DatabaseServer],
                 node_peak: float):
        # repro.faults: fleet cells take fleet-scope fault plans (node
        # crashes, partitions, replica lag) plus load-side bursts; the
        # single-server fault classes act below the node abstraction and
        # do not compose with fleets.
        if plan is not None:
            if plan.has_server_faults:
                raise ValueError(
                    "the fault plan carries single-server faults "
                    "(MSR/throttle/stall/skew), which do not compose with "
                    "fleet cells; use fleet faults (node crashes, "
                    "partitions, replica lag) or bursts instead")
            if plan.degradation.any_enabled:
                raise ValueError(
                    "fleet cells do not arm the single-server degradation "
                    "policy of a fault plan; the fleet's self-healing "
                    "router and failover machinery play that role")
        if config.workload_policy != "per-type":
            raise ValueError("fleet cells support the per-type workload "
                             "policy only")
        self.sim = sim
        self.fleet_config = fleet_config = config.fleet
        self.plan = plan
        self.streams = streams
        active = fleet_config.shards * (1 + fleet_config.static_replicas())
        fleet_label = "elastic" if fleet_config.elastic else f"static-{active}"
        self.scheme_label = f"fleet-{fleet_label} {scheme.label}"
        self.node_peak = node_peak
        self.peak_throughput = node_peak * fleet_config.provisioned_nodes()
        self.fleet, self.shards = _build_fleet(sim, fleet_config,
                                               make_server, streams)
        self.read_types = read_only_types(config.benchmark)
        self.router = ClusterRouter(sim, self.shards, self.read_types)
        self.wall_energy = self.fleet.wall_energy
        self.sanitize_accounting = self.fleet.sanitize_accounting
        #: Per-shard books beside the kernel's fleet-wide recorder: a
        #: counting-only recorder per shard, indexed by shard id.
        self.shard_books = [LatencyRecorder(keep_latencies=False)
                            for _ in self.shards]
        self.books_of = {node.server: self.shard_books[node.shard_id]
                         for node in self.fleet.nodes}
        self.servers = list(self.books_of)
        # Chaos cells only (see _arm_chaos); healthy cells build none of
        # it, so they stay byte-identical to the pinned PR 8 runs.
        self.replication: Dict[int, ShardReplication] = {}
        self.tracker: Optional[AvailabilityTracker] = None
        self.failover: Optional[FailoverManager] = None
        self.injector: Optional[FleetFaultInjector] = None
        self.controller: Optional[ElasticController] = None

        key_rng = streams.get_batched("fleet-keys")
        keyspace = fleet_config.keyspace
        route = self.router.route

        def admit(request: Request) -> None:
            # Keys shard the data; int(u * keyspace) keeps the stream
            # batched (randrange would fork a BatchedStream's sequence).
            route(request, int(key_rng.random() * keyspace))

        self.admit = admit

    def charge_loss(self, server: DatabaseServer, request: Request) -> None:
        self.books_of[server].on_lost(request)

    def attach(self, recorder: LatencyRecorder) -> None:
        """Wire the recorder and the shard books, arm chaos, start the
        failover and elastic timers --- in that (pinned) order."""
        self.recorder = recorder
        for books in self.shard_books:
            books.set_window(*recorder.window)
        for server, books in self.books_of.items():
            server.add_completion_listener(recorder.on_completion)
            server.add_rejection_listener(recorder.on_rejection)
            server.add_completion_listener(books.on_completion)
            server.add_rejection_listener(books.on_rejection)
        if self.plan is not None and self.plan.has_fleet_faults:
            self._arm_chaos(recorder)
        if self.fleet_config.elastic:
            self.controller = ElasticController(
                self.sim, self.fleet, self.router, self.fleet_config,
                self.node_peak, self.streams.get("fleet-lifecycle"))
            self.controller.start()

    def _arm_chaos(self, recorder: LatencyRecorder) -> None:
        """Replication/WAL model, self-healing router, fault injection,
        and (when enabled) the failover machinery."""
        sim, shards, fleet_config = self.sim, self.shards, self.fleet_config
        replication = self.replication = {
            shard.shard_id: ShardReplication(
                sim, shard.shard_id, fleet_config.group_commit_size)
            for shard in shards}
        tracker = self.tracker = AvailabilityTracker(
            sim, [s.shard_id for s in shards])
        write_seq = {shard.shard_id: 0 for shard in shards}
        read_types = self.read_types

        def _log_write(node: Node, request: Request) -> None:
            # Completed writes reach the shard's WAL iff this node is
            # the shard's primary *now* (role at completion time, so a
            # promoted replica starts logging the moment it takes over).
            shard = shards[node.shard_id]
            if request.txn_type in read_types or shard.primary is not node:
                return
            write_seq[node.shard_id] += 1
            replication[node.shard_id].on_write_committed(
                write_seq[node.shard_id])

        for node in self.fleet.nodes:
            node.server.add_completion_listener(partial(_log_write, node))

        def _on_shed(request: Request, shard_id: int) -> None:
            # Retry-exhausted (or end-of-run flushed) requests: offered
            # and rejected, the unavailability the availability figure
            # charges against the baseline.
            recorder.on_rejection(request)
            self.shard_books[shard_id].on_rejection(request)

        def _on_crash(node: Node, lost: List[Request]) -> None:
            for request in lost:
                recorder.on_lost(request)
                self.shard_books[node.shard_id].on_lost(request)
            if shards[node.shard_id].primary is node:
                tracker.mark_down(node.shard_id)

        self.injector = FleetFaultInjector(sim, self.plan, self.fleet,
                                           shards, replication, _on_crash)
        self.router.arm_self_healing(RouterPolicy.from_config(fleet_config),
                                     _on_shed,
                                     self.injector.effective_lag_s)
        self.injector.attach()
        if fleet_config.failover_enabled:
            self.failover = FailoverManager(
                sim, self.fleet, shards, replication, fleet_config,
                tracker, self.streams.get("fleet-failover"))
            self.failover.start()

    def register_gauges(self, registry: MetricRegistry) -> None:
        fleet = self.fleet
        registry.gauge("fleet_power_watts", "instantaneous fleet draw",
                       fn=fleet.wall_power)
        registry.gauge("active_nodes", "nodes in the active state",
                       fn=lambda: float(fleet.active_count()))
        registry.gauge("queue_depth_total", "requests queued, fleet-wide",
                       fn=lambda: float(fleet.total_queue_length()))

    def end_of_test(self) -> None:
        # Scaling follows offered load; once the generator stops the
        # controller must not park nodes out from under the drain.
        if self.controller is not None:
            self.controller.stop()

    def end_of_drain(self) -> None:
        if self.failover is not None:
            self.failover.stop()
        if self.router.policy is not None:
            # Requests still waiting on a scheduled retry at the drain
            # limit will never route; shed them so the books close.
            self.router.flush_pending_retries()

    def extras(self) -> Dict[str, object]:
        fleet, router = self.fleet, self.router
        fleet_actions = dict(router.decision_counts())
        if self.controller is not None:
            fleet_actions.update(self.controller.actions)
        fleet_actions["boots"] = sum(n.boots for n in fleet.nodes)
        fleet_actions["drains"] = sum(n.drains for n in fleet.nodes)
        all_latencies = [
            latency for stats in self.recorder.per_workload.values()
            for latency in stats.latencies]
        extras: Dict[str, object] = dict(
            scheme_label=self.scheme_label,
            per_shard_failure={
                f"shard{shard_id}": books.failure_rate
                for shard_id, books in enumerate(self.shard_books)},
            per_shard_offered={
                f"shard{shard_id}": books.total_offered
                for shard_id, books in enumerate(self.shard_books)},
            stale_reads=router.stale_read_bounces,
            fleet_actions=fleet_actions,
            node_timeline=list(fleet.node_timeline),
            p999_latency_s=(percentile(all_latencies, 99.9)
                            if all_latencies else 0.0))
        if self.injector is not None:
            extras.update(
                availability={
                    f"shard{shard_id}": fraction for shard_id, fraction in
                    self.tracker.availability(
                        *self.recorder.window).items()},
                lost_commits=sum(r.lost_commits
                                 for r in self.replication.values()),
                # Shards whose write path is still down when the run
                # ends --- the metric the chaos acceptance pins: zero
                # with failover, positive for the no-failover baseline.
                unserved_shards=sum(
                    1 for shard in self.shards
                    if shard.primary.state is not NodeState.ACTIVE),
                faults_injected=self.injector.total_injected)
            fleet_actions["node_crashes"] = \
                self.injector.injected["node_crash"]
            failover = self.failover
            if failover is not None:
                extras.update(failovers=failover.failovers,
                              mttr_s=failover.mean_mttr_s,
                              failover_timeline=list(failover.timeline))
                fleet_actions["failovers"] = failover.failovers
                fleet_actions["replayed_records"] = failover.records_replayed
        return extras


__all__ = ["FleetPlant"]
