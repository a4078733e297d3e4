"""Fleet-tier configuration (the ``fleet`` field of ExperimentConfig).

Kept import-light on purpose: :mod:`repro.harness.experiment` embeds
:class:`FleetConfig` as a nested dataclass field, so this module must
not import the harness back.  Being a plain dataclass also means
``dataclasses.asdict`` reaches every knob, which salts the sweep-cache
key automatically --- a cached single-server result can never be served
for a fleet cell or vice versa.

Only what a figure varies is a field.  The lifecycle, failure-model
and controller timings are module constants of the one component that
reads each of them (DESIGN.md §7 names them).
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
    cores and one request handler, all sharing one virtual clock.
    Offered load is expressed exactly as in single-server cells ---
    fractions of peak throughput --- but against the *peak-provisioned*
    fleet (every node active), so elastic and static cells of the same
    shape see identical arrivals.
    """

    shards: int = 2
    replicas_per_shard: int = 1
    node_workers: int = 2

    # -- elasticity ----------------------------------------------------
    #: Run the ElasticController (scale-out/scale-in of replicas).
    elastic: bool = True
    #: Replicas per shard the controller may never park below.
    min_active_replicas: int = 0
    #: Static cells only (``elastic=False``): how many replicas per
    #: shard start active; the rest stay parked for the whole run.
    #: ``None`` means all of them (the static peak-provisioned fleet).
    static_active_replicas: Optional[int] = None

    # -- failure model / failover (chaos cells) ------------------------
    #: Run the heartbeat detector + primary-failover machinery when the
    #: fault plan crashes nodes.  Off = the no-failover baseline: a
    #: crashed primary's shard sheds writes for the rest of the run.
    failover_enabled: bool = True

    def validate(self) -> None:
        """Reject out-of-range fields by name and value, as
        ``ExperimentConfig.validate`` does.  Counts must be ints: a
        float or bool passes a comparison and fails in ``range()``."""
        def need(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ValueError(
                    f"fleet {name} {rule}, got {getattr(self, name)!r}")

        for name, least in (("shards", 1), ("replicas_per_shard", 0),
                            ("node_workers", 1)):
            value = getattr(self, name)
            need(type(value) is int and value >= least, name,
                 f"must be an int of at least {least}")

        def replica_count(value) -> bool:
            return (type(value) is int
                    and 0 <= value <= self.replicas_per_shard)

        rule = ("must be an int from 0 to replicas_per_shard "
                f"({self.replicas_per_shard!r})")
        need(replica_count(self.min_active_replicas), "min_active_replicas",
             rule)
        need(self.static_active_replicas is None
             or replica_count(self.static_active_replicas),
             "static_active_replicas", rule)

    def static_replicas(self) -> int:
        """Replicas per shard a static fleet starts active."""
        return self.replicas_per_shard \
            if self.static_active_replicas is None \
            else self.static_active_replicas

    def provisioned_nodes(self) -> int:
        """Node count at peak provisioning (primaries + all replicas)."""
        return self.shards * (1 + self.replicas_per_shard)


__all__ = ["FleetConfig"]
