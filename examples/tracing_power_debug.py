#!/usr/bin/env python3
"""Tracing a run: debug POLARIS power behaviour with a Perfetto trace.

Runs the paper's Figure-6 medium-load TPC-C cell with the repro.obs
tracing subsystem enabled, then exports:

* ``polaris-fig6.trace.json`` --- a Chrome trace-event file.  Open it
  at https://ui.perfetto.dev (or chrome://tracing) to see every
  transaction as a span on its worker's track, P-state transitions as
  instant events annotated with the scheduler's frequency decision
  (selected vs floor frequency, queue length, estimated slack), and
  power / queue-depth / per-core-frequency counter tracks.
* ``polaris-fig6.series.csv`` --- the same counter series as CSV for
  offline plotting.

Traces ride the virtual clock, so two runs with the same seed produce
byte-identical files --- diff them after a code change to see exactly
which scheduling decision diverged.

    python examples/tracing_power_debug.py
"""

from repro.harness import ExperimentConfig, run_experiment
from repro.obs.export import validate_chrome_trace

TRACE_PATH = "polaris-fig6.trace.json"
SERIES_PATH = "polaris-fig6.series.csv"


def main() -> None:
    config = ExperimentConfig(
        benchmark="tpcc",
        scheme="polaris",
        load_fraction=0.6,   # Figure 6's "medium" level
        slack=40.0,
        workers=8,
        warmup_seconds=1.0,
        test_seconds=4.0,
        seed=1,
        trace_path=TRACE_PATH,
        trace_series_path=SERIES_PATH,
    )
    result = run_experiment(config)

    stats = validate_chrome_trace(TRACE_PATH)
    print(f"ran {result.completed} transactions at "
          f"{result.avg_power_watts:.1f} W avg wall power")
    print(f"exported {stats['events']} trace events on "
          f"{stats['tracks']} tracks -> {TRACE_PATH}")
    print(f"counter series -> {SERIES_PATH}")
    print()
    print("open the trace at https://ui.perfetto.dev; interesting rows:")
    print("  server/worker-*   exec spans + setfreq decision instants")
    print("  cpu/core-*        pstate:transition instants")
    print("  metrics/*         power_watts, queue_depth_total counters")


if __name__ == "__main__":
    main()
