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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.request import Request
from repro.db.server import DatabaseServer
from repro.fleet.config import FleetConfig
from repro.fleet.controller import ElasticController
from repro.fleet.node import Fleet, Node, NodeState, PRIMARY, REPLICA
from repro.fleet.router import ClusterRouter, ShardState, read_only_types
from repro.harness.experiment import ExperimentConfig
from repro.metrics.latency import LatencyRecorder, WorkloadStats, percentile
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.fleet.chaos import FleetFaultInjector
    from repro.fleet.failover import AvailabilityTracker, FailoverManager

#: Per-replica apply lag drawn uniformly from this range at build time
#: (seeded): a replica applies each log force this long after it.
REPLICATION_LAG_S = (0.01, 0.08)
#: Keys are drawn uniformly from [0, KEYSPACE) and sharded modulo.
KEYSPACE = 4096
#: Request-handler threads per node (the harness builds each node's
#: ServerConfig with it).
NODE_REQUEST_HANDLERS = 1
#: Wall draw of a parked node (fans + BMC; the idle-parked floor).
PARKED_FLOOR_WATTS = 4.0


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
                lag_s = lifecycle_rng.uniform(*REPLICATION_LAG_S)
            start_parked = (role == REPLICA
                            and not fleet_config.elastic
                            and replica_index > static_replicas)
            node = Node(sim, len(nodes), shard_id, role, make_server(),
                        parked_floor_watts=PARKED_FLOOR_WATTS,
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
        self.router = ClusterRouter(sim, self.shards,
                                    read_only_types(config.benchmark))
        self.wall_energy = self.fleet.wall_energy
        self.sanitize_accounting = self.fleet.sanitize_accounting
        #: Per-shard books: no recorder of their own.  Every outcome is
        #: logged in the kernel's one recorder under its shard as the
        #: site, and the books are :meth:`LatencyRecorder.site_books`.
        self.shard_of = {node.server: node.shard_id
                         for node in self.fleet.nodes}
        self.servers = list(self.shard_of)
        # Chaos cells only (see _arm_chaos); healthy cells build (and
        # import) none of it.
        self.tracker: Optional[AvailabilityTracker] = None
        self.failover: Optional[FailoverManager] = None
        self.injector: Optional[FleetFaultInjector] = None
        self.controller: Optional[ElasticController] = None

        key_rng = streams.get("fleet-keys")
        keyspace = KEYSPACE
        route = self.router.route

        def admit(request: Request) -> None:
            # Keys shard the data.  randrange(keyspace) would draw a
            # different sequence; the fleet goldens pin this one.
            route(request, int(key_rng.random() * keyspace))

        self.admit = admit

    def site_of(self, server: DatabaseServer) -> int:
        return self.shard_of[server]

    def attach(self, recorder: LatencyRecorder) -> None:
        """Wire the recorder (each server's outcomes under its shard),
        arm chaos, start the failover and elastic timers --- in that
        (pinned) order."""
        self.recorder = recorder
        for server, shard_id in self.shard_of.items():
            server.add_completion_listener(
                partial(recorder.on_completion, site=shard_id))
            server.add_rejection_listener(
                partial(recorder.on_rejection, site=shard_id))
        if self.plan is not None and self.plan.has_fleet_faults:
            self._arm_chaos(recorder)
        if self.fleet_config.elastic:
            self.controller = ElasticController(
                self.sim, self.fleet, self.router, self.fleet_config,
                self.node_peak, self.streams.get("fleet-lifecycle"))
            self.controller.start()

    def _arm_chaos(self, recorder: LatencyRecorder) -> None:
        """Self-healing router, fault injection, and (when enabled) the
        failover machinery."""
        from repro.fleet.chaos import FleetFaultInjector
        from repro.fleet.failover import AvailabilityTracker, FailoverManager
        sim, shards = self.sim, self.shards
        tracker = self.tracker = AvailabilityTracker(
            sim, [s.shard_id for s in shards])

        def _on_crash(node: Node, lost: List[Request]) -> None:
            for request in lost:
                recorder.on_lost(request, node.shard_id)
            if shards[node.shard_id].primary is node:
                tracker.mark_down(node.shard_id)

        self.injector = FleetFaultInjector(sim, self.plan, self.fleet,
                                           shards, _on_crash)
        # Retry-exhausted (or end-of-run flushed) requests are shed as
        # offered-and-rejected, the unavailability the availability
        # figure charges against the baseline.
        self.router.arm_self_healing(recorder.on_rejection)
        self.injector.attach()
        if self.fleet_config.failover_enabled:
            self.failover = FailoverManager(
                sim, self.fleet, shards, tracker,
                self.streams.get("fleet-failover"))
            self.failover.start()

    def gauges(self) -> Dict[str, Callable[[], float]]:
        fleet = self.fleet
        return {"fleet_power_watts": fleet.wall_power,
                "active_nodes": fleet.active_count,
                "queue_depth_total": fleet.total_queue_length}

    def end_of_test(self) -> None:
        # Scaling follows offered load; once the generator stops the
        # controller must not park nodes out from under the drain.
        if self.controller is not None:
            self.controller.stop()

    def end_of_drain(self) -> None:
        if self.failover is not None:
            self.failover.stop()
        if self.router.armed:
            # Requests still waiting on a scheduled retry at the drain
            # limit will never route; shed them so the books close.
            self.router.flush_pending_retries()

    def close(self) -> None:
        """Unlink the run (see :mod:`repro.harness.experiment`)."""
        self.fleet.close()

    def extras(self) -> Dict[str, object]:
        fleet, router = self.fleet, self.router
        fleet_actions = dict(router.decision_counts())
        if self.controller is not None:
            fleet_actions.update(self.controller.actions)
        fleet_actions["boots"] = sum(n.boots for n in fleet.nodes)
        fleet_actions["drains"] = sum(n.drains for n in fleet.nodes)
        all_latencies = [
            latency for latencies
            in self.recorder.latencies_by_workload().values()
            for latency in latencies]
        books = self.recorder.site_books()
        shard_books = [books.get(shard.shard_id, WorkloadStats())
                       for shard in self.shards]
        extras: Dict[str, object] = dict(
            scheme_label=self.scheme_label,
            per_shard_failure={
                f"shard{shard_id}": stats.failure_rate
                for shard_id, stats in enumerate(shard_books)},
            per_shard_offered={
                f"shard{shard_id}": stats.offered
                for shard_id, stats in enumerate(shard_books)},
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
                lost_commits=sum(shard.replication.lost_commits
                                 for shard in self.shards),
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
