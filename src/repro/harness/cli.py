"""Command-line entry point: regenerate any of the paper's figures.

Usage::

    polaris-repro fig6            # or: python -m repro.harness fig6
    polaris-repro fig6 --jobs 4   # fan cells out over 4 processes
    polaris-repro fig10 --trace-seconds 300
    polaris-repro all

Each command prints the same rows/series the paper's corresponding
table or figure reports (see EXPERIMENTS.md for the mapping and for
recorded paper-vs-measured comparisons), followed by a timing report.
Grid-shaped figures run their cells through the parallel sweep runner:
``--jobs N`` (or ``REPRO_JOBS``) controls worker processes, and results
are cached under ``.repro-cache/`` so re-runs only simulate changed
cells (``--no-cache`` bypasses, ``--clear-cache`` wipes).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable, Dict

from repro.harness import figures
from repro.harness.experiment import RunFlags
from repro.harness.parallel import SweepCache, resolve_jobs
from repro.harness.profiling import TimingReport

#: Every grid figure of the table, plus the three that are not grids.
COMMANDS: Dict[str, Callable[[figures.FigureOptions], object]] = {
    **{name: partial(figures.run_figure, figure)
       for name, figure in figures.FIGURES.items()},
    "fig3": figures.fig3_exec_times,
    "theory": lambda _options: figures.theory_competitive(),
    "overhead": lambda _options: figures.polaris_overhead(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaris-repro",
        description="Reproduce tables/figures from 'Workload-Aware CPU "
                    "Performance Scaling for Transactional Database "
                    "Systems' (SIGMOD 2018).")
    parser.add_argument("figure", choices=sorted(COMMANDS) + ["all"],
                        help="which figure to regenerate")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker/core count (default 16, as the paper)")
    parser.add_argument("--test-seconds", type=float, default=None,
                        help="measured test-phase length per cell")
    parser.add_argument("--trace-seconds", type=int, default=None,
                        help="trace length for fig10, fleet and availability "
                             "(paper: ~300)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="processes for sweep cells (default: "
                             "REPRO_JOBS or the CPUs this process may "
                             "run on)")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="export a Perfetto trace (.trace.json, open "
                             "at ui.perfetto.dev) and metric-series CSV "
                             "per cell into DIR; traced cells always "
                             "re-run (never served from the cache)")
    parser.add_argument("--faults", metavar="SCENARIO", default=None,
                        help="run every cell under a repro.faults scenario "
                             "('burst', 'brownout', 'sticky-pstate', "
                             "'dying-core', '+'-compositions like "
                             "'burst+brownout', or a plan JSON path); the "
                             "'resilience' and 'availability' figures and "
                             "the 'arena' fault rounds supply their own "
                             "scenarios")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--clear-cache", action="store_true",
                        help="wipe .repro-cache/ before running")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every run-size input is checked here, so a bad value is a clean
    # usage error (exit 2) rather than a mid-sweep traceback.
    try:
        resolved_jobs = resolve_jobs(args.jobs)
        options = figures.FigureOptions(
            jobs=args.jobs, use_cache=not args.no_cache,
            trace_dir=args.trace, faults=args.faults)
        for name in ("workers", "test_seconds", "trace_seconds", "seed"):
            if getattr(args, name) is not None:
                setattr(options, name, getattr(args, name))
        options.validate()
        # Also loads the fault plan named by --faults (or REPRO_FAULTS).
        RunFlags.resolve(options.base_config())
    except (ValueError, OSError) as exc:
        parser.error(str(exc))

    if args.clear_cache:
        removed = SweepCache().clear()
        print(f"[cache cleared: {removed} entries]")

    names = sorted(COMMANDS) if args.figure == "all" else [args.figure]
    for name in names:
        report = TimingReport(name, jobs=resolved_jobs)
        options.report = report
        with report.phase("total"):
            result = COMMANDS[name](options)
        print(result.render())
        print()
        print(report.render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
