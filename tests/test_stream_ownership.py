"""One module owns each RNG stream name.

A stream's draws are a pinned cell's result: a second module drawing
from the same ``(registry, name)`` shifts every draw of the first, and
only a pinned cell whose consumer reads that stream would notice.  This
test watches who asks: it spies on ``RandomStreams.get`` across a
faulted server cell, an elastic fleet cell and a crash-per-shard fleet
cell, and records the requesting module per name.  A ``spawn()`` child
is a registry of its own, so it may reuse a name.  Every stream it
hands out is a plain ``random.Random``: a subclass that serves draws
its own way could fork a pinned sequence on a method it forgot.
"""

import random
import sys

from repro.fleet.config import FleetConfig
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
    original = RandomStreams.get

    def requested(streams, name):
        module = sys._getframe(1).f_globals["__name__"]
        owners.setdefault((streams, name), set()).add(module)
        return original(streams, name)

    monkeypatch.setattr(RandomStreams, "get", requested)
    for config in _cells():
        run_experiment(config)
    # Every stream of every registry asked, however it was created.
    not_plain = sorted({name for streams, _ in owners
                        for name, stream in streams._streams.items()
                        if type(stream) is not random.Random})
    assert not not_plain, not_plain
    names = {name for _, name in owners}
    # The three cells reach every tier's consumers.
    assert {"faults", "service-times", "fleet-lifecycle", "fleet-keys",
            "fleet-failover"} <= names, names
    shared = {name: sorted(modules)
              for (_, name), modules in owners.items() if len(modules) > 1}
    assert not shared, shared
