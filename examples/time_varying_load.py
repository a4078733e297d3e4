#!/usr/bin/env python3
"""Time-varying load: the World Cup trace experiment (Section 6.4).

The TPC-C request rate follows a synthetic trace shaped like the 1998
World Cup access logs, sweeping between 30% and 90% of peak with a new
target each second.  The example prints the normalized load and each
scheme's power timeline as sparklines, plus the summary the paper
reports in Figure 10(b).

    python examples/time_varying_load.py
"""

import random

from repro.harness import ExperimentConfig, run_experiment
from repro.harness.experiment import TIMELINE_BIN_S
from repro.metrics.report import timelines
from repro.workloads.traces import synthesize_worldcup_trace

TRACE_SECONDS = 60


def main() -> None:
    trace = synthesize_worldcup_trace(TRACE_SECONDS, random.Random(1998))
    print(f"{TRACE_SECONDS}s trace, rate swept 30%..90% of peak, "
          "slack 50\n")
    power_timelines = []
    summary = []
    for scheme in ["conservative", "ondemand", "polaris"]:
        config = ExperimentConfig(
            benchmark="tpcc",
            scheme=scheme,
            slack=50.0,
            load_trace=trace,
            workers=8,
            warmup_seconds=1.0,
            seed=1998,
        )
        result = run_experiment(config)
        power_timelines.append((f"{scheme} power", result.power_timeline))
        summary.append((scheme, result.avg_power_watts,
                        result.failure_rate))
    print(f"normalized timelines ({TIMELINE_BIN_S:g} s bins)")
    print("\n".join(timelines(trace, power_timelines, TIMELINE_BIN_S)))
    print()
    print(f"{'scheme':14s} {'avg power (W)':>14s} {'failure rate':>13s}")
    for scheme, power, failure in summary:
        print(f"{scheme:14s} {power:14.1f} {failure:13.3f}")
    print()
    print("All schemes track the load, but POLARIS's adjustments are")
    print("sharper and deeper (paper Figure 10(a)), giving it the lowest")
    print("average power and the fewest missed deadlines.")


if __name__ == "__main__":
    main()
