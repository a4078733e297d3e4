"""Examples stay importable and expose a main() entry point.

Full example runs are exercised manually / in docs; these tests catch
API drift (an example referencing a renamed symbol) without paying the
full simulation cost in the unit suite.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLE_FILES}
    assert {"quickstart", "workload_differentiation", "time_varying_load",
            "theory_competitive", "custom_workload", "worker_parking",
            "ycsb_keyvalue"} <= names
    assert len(EXAMPLE_FILES) >= 7


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = load_example(path)
    assert callable(getattr(module, "main", None)), \
        f"{path.name} must define main()"
    assert module.__doc__, f"{path.name} needs a module docstring"


def test_theory_example_runs_quickly(capsys):
    """The theory example is pure computation --- run it outright."""
    module = load_example(EXAMPLES_DIR / "theory_competitive.py")
    module.main()
    out = capsys.readouterr().out
    assert "POLARIS/OA = 1.000000" in out
    assert "c^alpha" in out
