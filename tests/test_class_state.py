"""Nothing on the per-event path writes class state.

On CPython a write to a class's ``__dict__`` invalidates the type's
version tag, so every specialized attribute load and store on *any*
instance of it misses and takes the generic path until it
re-specializes.  One such write per transaction (``Request._next_id +=
1`` did it) slowed whole runs by about a tenth, and no micro-benchmark
that builds its objects in setup can see it.  This guards the cause:
run one cell of each kind and check that no class defined in ``repro``
gained, lost or rebound a class attribute.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import sys

import repro
from repro.core.request import Request
from repro.core.workload import Workload
from repro.db.server import DatabaseServer, ServerConfig
from repro.harness.experiment import ExperimentConfig, RunFlags, run_experiment
from repro.sim.engine import Simulator

sys.path.insert(0, os.path.dirname(__file__))
from pinned import elastic_cell

SMOKE = dict(workers=2, warmup_seconds=0.2, test_seconds=0.4, seed=13)

CELLS = (
    ExperimentConfig(scheme="ondemand", **SMOKE),
    ExperimentConfig(scheme="polaris", **SMOKE),
    ExperimentConfig(scheme="polaris", faults="burst", trace=True, **SMOKE),
    dataclasses.replace(elastic_cell(), trace=None),
)


def _repro_classes():
    """Every class defined in a ``repro`` module, all modules loaded."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    classes = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        classes.extend(value for value in vars(module).values()
                       if inspect.isclass(value) and value.__module__ == name)
    return classes


def _changes(before):
    for cls, snapshot in before.items():
        now = vars(cls)
        for attr in sorted(snapshot.keys() | now.keys()):
            if attr not in now:
                yield f"{cls.__qualname__}.{attr} (removed)"
            elif attr not in snapshot:
                yield f"{cls.__qualname__}.{attr} (added)"
            elif now[attr] is not snapshot[attr]:
                yield f"{cls.__qualname__}.{attr} (rebound)"


def test_running_cells_writes_no_class_attribute():
    classes = _repro_classes()
    assert len(classes) > 100
    before = {cls: dict(vars(cls)) for cls in classes}
    for config in CELLS:
        result = run_experiment(config, flags=RunFlags.resolve(config))
        assert result.completed > 0, config
    changed = list(_changes(before))
    assert not changed, "class state written during a run: " \
        + ", ".join(changed)


def test_request_ids_increase_across_simulators():
    workload = Workload("w", 0.05)
    ids = []
    for _ in range(2):
        sim = Simulator()
        server = DatabaseServer(sim, ServerConfig(workers=2))
        for _ in range(5):
            request = Request(workload, "t", sim.now, 1e-3)
            server.submit(request)
            ids.append(request.request_id)
        sim.run()
    assert all(a < b for a, b in zip(ids, ids[1:])), ids
