"""A run imports only the code it executes.

Every run here is a fresh interpreter (a bench set-up probe, a pool
worker, a CLI call, a subprocess test), so each module a cell imports is
paid once per run.  Each case runs one tiny cell in a fresh interpreter
with every ``REPRO_*`` variable scrubbed, then reads ``sys.modules``: a
healthy cell must not load the optional subsystems it does not run, and
switching one on must load it (the positive controls show the probe
sees an import when there is one).
"""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.faults

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Every submodule of ``repro.faults`` (the package init, which holds
#: only the ``REPRO_FAULTS`` switch, is allowed).
FAULT_MODULES = tuple(f"repro.faults.{info.name}"
                      for info in pkgutil.iter_modules(repro.faults.__path__))

#: What no healthy server cell loads (a name also covers its submodules).
SERVER_FORBIDDEN = (
    "repro.fleet.experiment", "repro.fleet.node", "repro.fleet.router",
    "repro.fleet.controller", "repro.fleet.chaos", "repro.fleet.failover",
    *FAULT_MODULES,
    "repro.harness.parallel", "repro.harness.figures", "repro.harness.cli",
    "repro.obs.export", "repro.obs.metrics", "repro.theory",
    "concurrent.futures", "multiprocessing",
)

#: What no healthy fleet cell loads.
FLEET_FORBIDDEN = (
    *FAULT_MODULES, "repro.fleet.chaos", "repro.fleet.failover",
    "repro.harness.parallel", "repro.obs.export",
)

TINY = "dict(warmup_seconds=0.1, test_seconds=0.3, seed=3)"
SERVER = f"dict(workers=2, **{TINY})"

#: label -> (config expression, modules it must not load, modules it
#: must load).
CASES = {
    "polaris": (f"ExperimentConfig(scheme='polaris', **{SERVER})",
                SERVER_FORBIDDEN, ()),
    "ondemand": (f"ExperimentConfig(scheme='ondemand', **{SERVER})",
                 SERVER_FORBIDDEN, ()),
    "elastic-fleet": (
        f"ExperimentConfig(fleet=FleetConfig(elastic=True, shards=2, "
        f"replicas_per_shard=1, node_workers=2), **{TINY})",
        FLEET_FORBIDDEN, ("repro.fleet.controller",)),
    "faults-burst": (
        f"ExperimentConfig(scheme='polaris', faults='burst', **{SERVER})",
        (), ("repro.faults.injector",)),
    "traced": (f"ExperimentConfig(scheme='polaris', trace=True, **{SERVER})",
               (), ("repro.obs.metrics",)),
    "shard-crash-fleet": (
        f"ExperimentConfig(faults='shard-crash', fleet=FleetConfig("
        f"shards=1, replicas_per_shard=1, node_workers=1), **{TINY})",
        (), ("repro.fleet.chaos",)),
}

_PROBE = """
import json, sys
from repro.fleet.config import FleetConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
result = run_experiment({config})
print(json.dumps({{"completed": result.completed,
                   "modules": sorted(sys.modules)}}))
"""


def _loaded(modules, names):
    return sorted(module for module in modules for name in names
                  if module == name or module.startswith(name + "."))


@pytest.mark.parametrize("label", sorted(CASES))
def test_a_cell_imports_only_what_it_runs(label, tmp_path):
    config, forbidden, required = CASES[label]
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(config=config)], env=env,
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["completed"] > 0
    loaded = _loaded(probe["modules"], forbidden)
    assert not loaded, f"{label} loaded {loaded}"
    missing = set(required) - set(probe["modules"])
    assert not missing, f"{label} did not load {sorted(missing)}"
