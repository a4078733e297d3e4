"""One module owns each RNG stream name.

A stream's draws are a pinned cell's result: a second module drawing
from the same ``(registry, name)`` shifts every draw of the first, and
only a pinned cell whose consumer reads that stream would notice.  This
test watches who asks: it spies on ``RandomStreams.get`` and
``get_batched`` across a faulted server cell, an elastic fleet cell and
a crash-per-shard fleet cell, and records the requesting module per
name.  A ``spawn()`` child is a registry of its own, so it may reuse a
name.
"""

import sys

from repro.fleet import FleetConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.sim.rng import RandomStreams

_TINY = dict(warmup_seconds=0.2, drain_limit_seconds=2.0, seed=3,
             trace=False)


def _cells():
    yield ExperimentConfig(scheme="polaris", workers=2, test_seconds=0.4,
                           faults="burst+brownout", **_TINY)
    yield ExperimentConfig(
        test_seconds=0.5, **_TINY,
        fleet=FleetConfig(shards=1, replicas_per_shard=1, node_workers=1))
    # The scenario crashes every primary at 1.5 s.
    yield ExperimentConfig(
        test_seconds=2.0, faults="shard-crash", **_TINY,
        fleet=FleetConfig(shards=1, replicas_per_shard=1, node_workers=1,
                          elastic=False, heartbeat_timeout_s=0.1))


def test_each_stream_name_is_requested_by_one_module(monkeypatch):
    #: (registry, name) -> requesting modules; the key keeps the
    #: registry alive, so no two registries share an identity.
    owners = {}

    def spy(method):
        original = getattr(RandomStreams, method)

        def requested(streams, name):
            module = sys._getframe(1).f_globals["__name__"]
            owners.setdefault((streams, name), set()).add(module)
            return original(streams, name)

        monkeypatch.setattr(RandomStreams, method, requested)

    spy("get")
    spy("get_batched")
    for config in _cells():
        run_experiment(config)
    names = {name for _, name in owners}
    # The three cells reach every tier's consumers.
    assert {"faults", "service-times", "fleet-lifecycle", "fleet-keys",
            "fleet-failover"} <= names, names
    shared = {name: sorted(modules)
              for (_, name), modules in owners.items() if len(modules) > 1}
    assert not shared, shared
