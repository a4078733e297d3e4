"""Experiment harness: the paper's methodology as a library.

:mod:`repro.harness.experiment` runs one experimental configuration ---
(benchmark, frequency-control scheme, load level, slack) --- through the
paper's three phases (warmup, estimator training, measured test phase)
and returns the metrics the paper reports: average wall power over the
test phase and failure rates overall and per workload.

:mod:`repro.harness.figures` holds the evaluation section as one table
(``FIGURES``: each figure's cells and printed sections) and
``run_figure``, which regenerates any entry; the benchmark suite and the
CLI both call through here.

:mod:`repro.harness.parallel` fans independent cells out over worker
processes behind a content-addressed on-disk cache (cells that are the
same simulation scored against different deadlines run it once), and
:mod:`repro.harness.profiling` accounts for where the wall time went.
"""

from repro.fleet.config import FleetConfig
from repro.harness.experiment import (
    ExperimentConfig, ExperimentResult, RunFlags, run_experiment,
)
from repro.harness.parallel import SweepCache, SweepRunner
from repro.harness.profiling import TimingReport
from repro.harness.schemes import SCHEMES, Scheme, scheme_named

__all__ = [
    "ExperimentConfig", "ExperimentResult", "FleetConfig", "RunFlags",
    "run_experiment",
    "SweepCache", "SweepRunner", "TimingReport",
    "SCHEMES", "Scheme", "scheme_named",
]
