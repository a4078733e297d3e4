"""Benchmark-suite plumbing.

Every bench regenerates one of the paper's tables/figures, asserts the
*shape* claims the paper makes about it (who wins, by roughly what
factor, where crossovers fall), and archives the rendered rows/series
under ``benchmarks/results/`` --- so ``pytest benchmarks/
--benchmark-only`` leaves both the timing table and the reproduced
figure data behind.

Scale knobs: ``REPRO_BENCH_SCALE`` (multiplies measured-phase lengths)
and ``REPRO_BENCH_WORKERS`` (default 16, the paper's testbed).
"""

import pathlib

import pytest

from repro.harness.figures import FigureOptions

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def _hermetic_harness_paths(tmp_path, monkeypatch):
    """Point the sweep cache at a fresh tmp dir so bench timings
    measure real simulation (no cross-run cache hits) and the repo root
    stays clean."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def figure_options() -> FigureOptions:
    return FigureOptions.from_env()


@pytest.fixture(scope="session")
def archive():
    """Write a figure's rendered output to benchmarks/results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _archive(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _archive
