"""A run imports only the code it executes, and every module is run.

Every run here is a fresh interpreter (a bench set-up probe, a pool
worker, a CLI call, a subprocess test), so each module a cell imports is
paid once per run.  Each case runs one tiny cell in a fresh interpreter
with every ``REPRO_*`` variable scrubbed, then reads ``sys.modules``: a
healthy cell must not load the optional subsystems it does not run, and
switching one on must load it (the positive controls show the probe
sees an import when there is one).  The two plain server cells also run
under ``sys.setprofile``: every ``repro`` module they load (package
``__init__``s aside) must have run a function, unless ``IDLE_ALLOWED``
says why it is loaded anyway.

The converse is static: every module under ``repro`` must be reachable
by imports from an entry point, so a package only its own tests import
cannot hide in the tree.
"""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.faults
from repro.core.routing import ROUTING_POLICIES
from repro.db.server import ROUTINGS

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

#: The cases whose every loaded module must run a function.
PROFILED = ("polaris", "ondemand")

#: Modules a profiled cell may load without running a function of them,
#: and why.
IDLE_ALLOWED = {
    "repro.fleet.config": "the type of ExperimentConfig.fleet (and the "
                          "probe imports FleetConfig)",
}

TINY = "dict(warmup_seconds=0.1, test_seconds=0.3, seed=3)"
SERVER = f"dict(workers=2, **{TINY})"

#: label -> (config expression, modules it must not load, modules it
#: must load).
CASES = {
    "polaris": (f"ExperimentConfig(scheme='polaris', **{SERVER})",
                SERVER_FORBIDDEN, ()),
    "ondemand": (f"ExperimentConfig(scheme='ondemand', **{SERVER})",
                 (*SERVER_FORBIDDEN, "repro.core.polaris",
                  "repro.core.estimator"), ()),
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
ran = set()

def on_call(frame, event, arg):
    # Function bodies only: module and class bodies lack CO_NEWLOCALS,
    # and a comprehension counts only for the code that runs it.
    code = frame.f_code
    if event == "call" and code.co_flags & 0x2 and code.co_name not in (
            "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"):
        ran.add(code.co_filename)

if {profiled}:
    sys.setprofile(on_call)
from repro.fleet.config import FleetConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
result = run_experiment({config})
sys.setprofile(None)
idle = sorted(name for name, module in sys.modules.items()
              if name.startswith("repro.")
              and not module.__file__.endswith("__init__.py")
              and module.__file__ not in ran)
print(json.dumps({{"completed": result.completed,
                   "modules": sorted(sys.modules), "idle": idle}}))
"""


def _fresh_env():
    """The environment of a fresh interpreter: ``REPRO_*`` scrubbed,
    this tree's ``src`` first on the path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _loaded(modules, names):
    return sorted(module for module in modules for name in names
                  if module == name or module.startswith(name + "."))


@pytest.mark.parametrize("label", sorted(CASES))
def test_a_cell_imports_only_what_it_runs(label, tmp_path):
    config, forbidden, required = CASES[label]
    done = subprocess.run(
        [sys.executable, "-c",
         _PROBE.format(config=config, profiled=label in PROFILED)],
        env=_fresh_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["completed"] > 0
    loaded = _loaded(probe["modules"], forbidden)
    assert not loaded, f"{label} loaded {loaded}"
    missing = set(required) - set(probe["modules"])
    assert not missing, f"{label} did not load {sorted(missing)}"
    if label in PROFILED:
        idle = sorted(set(probe["idle"]) - set(IDLE_ALLOWED))
        assert not idle, f"{label} loaded, but ran no function of, {idle}"


def test_figures_load_the_theory_oracles_only_on_call():
    """The Section 4 oracles load when the ``theory`` command runs, not
    with the figure table every other command imports."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; import repro.harness.figures; "
         "print(json.dumps(sorted(sys.modules)))"],
        env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout.splitlines()[-1])
    assert "repro.harness.figures" in modules
    loaded = _loaded(modules, ("repro.theory",))
    assert not loaded, f"import repro.harness.figures loaded {loaded}"


def test_the_servers_routing_names_are_the_policies():
    """``db.server`` spells the policy names out so that the default
    rotation never imports :mod:`repro.core.routing`."""
    assert ROUTINGS == ("rh-round-robin", *ROUTING_POLICIES)


#: The documented entry points: the figure CLI, the linter CLI, and the
#: experiment kernel (what the examples and the benchmark import).
ENTRY_POINTS = ("repro.harness.__main__", "repro.analysis.__main__",
                "repro.harness.experiment")


def _source_modules():
    """Module name -> source path for every module under ``repro``."""
    root = Path(repro.__file__).parent
    modules = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported_names(path):
    """Every dotted name an import statement in ``path`` can load,
    function-level imports included, with its parent packages."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            yield from (".".join(parts[:i + 1]) for i in range(len(parts)))


def test_every_module_is_reachable_from_an_entry_point():
    modules = _source_modules()
    reached = set()
    pending = [".".join(name.split(".")[:i + 1]) for name in ENTRY_POINTS
               for i in range(name.count(".") + 1)]
    while pending:
        name = pending.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        pending.extend(_imported_names(modules[name]))
    orphans = sorted(set(modules) - reached)
    assert not orphans, f"reached by no entry point: {orphans}"
