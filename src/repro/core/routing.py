"""Request-routing policies across workers (paper Section 8).

The prototype's request handlers distribute requests round-robin,
"regardless of the request's transaction type or workload"
(Section 6.1).  The paper's closing discussion points out the extra
savings left on the table: "By controlling how transactions are
distributed to workers, we can obtain additional power savings by
allowing some workers (and their cores) to idle and move into
low-power C-states."

This module implements that direction.  The paper's own rotation,
one pointer per request handler, is the server's built-in
``"rh-round-robin"`` path (:meth:`repro.db.server.DatabaseServer.submit`),
not a policy here:

* :class:`LeastLoadedRouting` --- classic join-shortest-queue;
* :class:`PackingRouting` --- the Section 8 idea: concentrate load on
  the lowest-numbered workers, subject to a backlog cap, so the
  remaining workers' cores idle long enough to demote into deep
  C-states (pair with ``ServerConfig(cstate_ladder="deep")``).

Policies see only queue lengths and busy flags --- information the
request handlers have --- so they remain workload-agnostic like the
rest of the routing layer.

When the resilience watchdog has quarantined workers, the server passes
the surviving indices as ``eligible``; policies choose among those only,
so packing does not keep targeting a dead prefix worker and
least-loaded does not favour a dead, always-idle one.  With
``eligible=None`` (or an empty selection) every worker is a candidate.
"""

from __future__ import annotations

from typing import Optional, Sequence


class RoutingPolicy:
    """Chooses the worker index for each incoming request.

    ``eligible`` is an ordered sequence of candidate worker indices
    (``None`` means all).  The returned index is always drawn from the
    candidates.
    """

    name = "routing"

    def choose_worker(self, workers: Sequence, request, now: float,
                      eligible: Optional[Sequence[int]] = None) -> int:
        raise NotImplementedError

    @staticmethod
    def _candidates(workers: Sequence,
                    eligible: Optional[Sequence[int]]) -> Sequence[int]:
        if eligible:
            return eligible
        return range(len(workers))


class LeastLoadedRouting(RoutingPolicy):
    """Join the shortest queue (idle workers first, then fewest queued).

    Balances latency rather than power: it spreads load, which keeps
    every core lightly busy --- the opposite of what deep C-states need.
    Included as the natural contrast to :class:`PackingRouting`.
    """

    name = "least-loaded"

    def choose_worker(self, workers: Sequence, request, now: float,
                      eligible: Optional[Sequence[int]] = None) -> int:
        candidates = self._candidates(workers, eligible)
        best_index = candidates[0]
        best_key = None
        for index in candidates:
            worker = workers[index]
            key = (0 if worker.idle else 1, worker.queue_length(), index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index


class PackingRouting(RoutingPolicy):
    """Consolidate onto the fewest workers (Section 8's extension).

    Route to the lowest-numbered worker whose backlog (running + queued)
    is below ``max_backlog``; spill to the next worker only when all
    earlier ones are saturated.  Workers beyond the active prefix see no
    requests, so their cores' idle intervals grow long enough for the
    C-state ladder to demote them into C6.

    ``max_backlog`` trades power for latency: a small cap behaves like
    least-loaded (little parking); a large cap parks aggressively but
    queues more work per active core.
    """

    name = "packing"

    def __init__(self, max_backlog: int = 3):
        if max_backlog < 1:
            raise ValueError("max_backlog must be at least 1")
        self.max_backlog = max_backlog

    def choose_worker(self, workers: Sequence, request, now: float,
                      eligible: Optional[Sequence[int]] = None) -> int:
        candidates = self._candidates(workers, eligible)
        fallback_index = candidates[0]
        fallback_backlog = None
        for index in candidates:
            worker = workers[index]
            backlog = worker.queue_length() + (0 if worker.idle else 1)
            if backlog < self.max_backlog:
                return index
            if fallback_backlog is None or backlog < fallback_backlog:
                fallback_backlog = backlog
                fallback_index = index
        return fallback_index  # everyone saturated: least-bad choice


ROUTING_POLICIES = {
    "least-loaded": LeastLoadedRouting,
    "packing": PackingRouting,
}


def make_routing(name: str) -> RoutingPolicy:
    """Instantiate a routing policy by name."""
    cls = ROUTING_POLICIES.get(name)
    if cls is None:
        raise KeyError(f"unknown routing policy {name!r}; "
                       f"available: {sorted(ROUTING_POLICIES)}")
    return cls()
