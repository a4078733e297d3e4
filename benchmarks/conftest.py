"""Benchmark-suite plumbing.

Every bench regenerates one of the paper's tables/figures at full size
(``FigureOptions()``: 16 workers, 4 s test phases, 120 s traces),
asserts the *shape* claims the paper makes about it (who wins, by
roughly what factor, where crossovers fall) and prints the rendered
rows/series (``pytest benchmarks -s`` shows them).  The suite answers
what nothing else does: ``tests/`` pins every figure's output at tiny
size and ``python -m bench`` times the code; only this suite checks the
paper's claims at the size EXPERIMENTS.md narrates.
"""

import pytest

from repro.harness.figures import FigureOptions


@pytest.fixture(autouse=True)
def _hermetic_harness_paths(tmp_path, monkeypatch):
    """Point the sweep cache at a fresh tmp dir so every bench really
    simulates (no cross-run cache hits) and the repo root stays
    clean."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def figure_options() -> FigureOptions:
    return FigureOptions()
