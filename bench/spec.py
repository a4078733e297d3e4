"""What the benchmark measures, as data.

This module imports nothing from the program under test, so ``compare``
and the consistency test can read it without ``src/`` on the path.
``BENCHMARK.json`` at the repo root is the driver-facing projection of
these tables (names, units, directions, bounds); ``test_bench.py``
checks the two agree.  Workload *configs* live in ``workloads.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Workload name -> one-sentence reason it exists (names are fixed;
#: later issues cite them).
WORKLOADS: Dict[str, str] = {
    "server_polaris": (
        "16 deep per-worker EDF queues at 0.9 load: select_frequency's queue "
        "walk and the estimator do most of the work (the paper's own hot path)"),
    "server_governor": (
        "same server and arrivals under the ondemand governor: bypasses "
        "core.polaris/core.estimator, so engine, db.server, cpu.core, rng dominate"),
    "fleet_diurnal": (
        "elastic 2x2 fleet on a diurnal trace: only user of router/controller/"
        "node lifecycle, and POLARIS on eight shorter queues sharing one estimator"),
    "sweep_grid": (
        "12-cell scheme x slack grid through SweepRunner at jobs=nproc: the unit "
        "a user runs, and the only workload where harness.parallel does anything"),
}


@dataclass(frozen=True)
class EndToEnd:
    """One user-visible metric, reported per workload."""

    name: str
    unit: str
    better: str          # "lower" | "higher"
    clock: str           # "host" | "simulated" | "-"
    #: How much worse the metric may get before it is a regression: a
    #: share of the base median, or an absolute amount if ``absolute``.
    bound: float
    definition: str
    absolute: bool = False
    #: Gated metrics appear in BENCHMARK.json and in the driver's JSON
    #: line.  The contract wants them never zero and steady across
    #: seeds; the two ungated ones cannot be (a miss rate of 0.004 has a
    #: seed-to-seed spread of 10 %, and failed_share is 0 when all is
    #: well), so they are printed and compared but not gated.
    gated: bool = True


#: Host times are *corrected for the host's speed*: every timed step is
#: bracketed by two slices of a frozen reference kernel and scaled by
#: ``REFERENCE_NS`` / their mean (``runner.HostSpeed``).  This
#: container's shared cores run 30-60 % slower for seconds at a time;
#: uncorrected medians of ten runs spread 4-34 %, corrected ones 2-8 %
#: (the pooled sweep_grid 11 % at worst).
#: The uncorrected median is kept beside each value as ``raw``.
#:
#: Bounds are at least three times the widest quartile spread seen over
#: ten runs on ten seeds (README, "Where the bounds come from"), capped
#: at the contract's 0.25: peak RSS is bimodal across seeds (spread up
#: to 7 %), and across seeds power spreads up to 2.3 % and the on-time
#: rate up to 4.3 %.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", "host", 0.25,
             "median over fresh interpreters of: cold import of the experiment "
             "stack + one build-and-train-only cell of the workload; "
             "corrected for host speed"),
    EndToEnd("wall_s", "s", "lower", "host", 0.25,
             "perf_counter around the single public call (run_experiment / "
             "SweepRunner.run), corrected for host speed, median over "
             "repetitions"),
    EndToEnd("events_per_s", "events/s", "higher", "host", 0.25,
             "sum of ExperimentResult.sim_events / wall_s"),
    EndToEnd("peak_rss_mb", "MiB", "lower", "host", 0.25,
             "ru_maxrss of the workload's interpreter after the second "
             "measured repetition (sweep_grid adds jobs x the largest child)"),
    EndToEnd("sim_power_w", "W", "lower", "simulated", 0.05,
             "avg_power_watts, mean over cells; repeats exactly per seed"),
    EndToEnd("sim_ontime_rate", "fraction", "higher", "simulated", 0.15,
             "1 - sim_miss_rate; the gated, never-zero form of the paper's "
             "second metric"),
    EndToEnd("sim_miss_rate", "fraction", "lower", "simulated", 0.002,
             "failure_rate, offered-weighted over cells; rejected and lost "
             "requests count as misses; repeats exactly per seed",
             absolute=True, gated=False),
    EndToEnd("failed_share", "fraction", "lower", "-", 0.0,
             "failed repetitions / attempted (raise, unbalanced books, "
             "fingerprint mismatch, pooled != serial, call expectations)",
             absolute=True, gated=False),
)


@dataclass(frozen=True)
class PerLayer:
    """One metric of a single layer (a module of ``repro``)."""

    name: str
    unit: str
    better: str
    source: str          # "T" traced run | "M" micro-driver
    #: Written before measuring: the end-to-end metric this should move
    #: and the workload it should move it on.
    moves: str
    on: str


def _layer(rows: str) -> Tuple[PerLayer, ...]:
    out = []
    for line in rows.strip().splitlines():
        out.append(PerLayer(*[cell.strip() for cell in line.split("|")]))
    return tuple(out)


_SIM = "wall_s, events_per_s"
PER_LAYER: Tuple[PerLayer, ...] = _layer(f"""
sim.engine.events                          | count | lower  | T | {_SIM} | server_governor most; all
sim.engine.cancelled_per_event             | ratio | lower  | T | {_SIM} | server_polaris (reschedules)
sim.engine.residual_s                      | s     | lower  | T | {_SIM} | server_governor most; all
sim.engine.residual_share                  | ratio | lower  | T | {_SIM} | server_governor most; all
sim.engine.schedule_pop_ns                 | ns    | lower  | M | {_SIM} | server_governor most; all
sim.rng.draw_ns.random                     | ns    | lower  | M | wall_s | server_governor
sim.rng.draw_ns.expovariate                | ns    | lower  | M | wall_s | server_governor
sim.rng.draw_ns.lognormvariate             | ns    | lower  | M | wall_s | server_governor
core.polaris.select_frequency.calls        | count | lower  | T | {_SIM} | server_polaris, fleet_diurnal; 0 on server_governor
core.polaris.select_frequency.self_s       | s     | lower  | T | {_SIM} | server_polaris most
core.polaris.select_frequency.share        | ratio | lower  | T | {_SIM} | server_polaris most
core.polaris.select_frequency.queue_len_mean | count | lower | T | sim_power_w | server_polaris deep, fleet_diurnal shorter
core.polaris.select_frequency.queue_len_p99  | count | lower | T | sim_power_w | server_polaris deep, fleet_diurnal shorter
core.polaris.enqueue_next.calls            | count | lower  | T | {_SIM} | server_polaris, fleet_diurnal
core.polaris.enqueue_next.self_s           | s     | lower  | T | {_SIM} | server_polaris, fleet_diurnal
core.polaris.select_frequency_ns.q0        | ns    | lower  | M | {_SIM} | fleet_diurnal
core.polaris.select_frequency_ns.q4        | ns    | lower  | M | {_SIM} | fleet_diurnal
core.polaris.select_frequency_ns.q16       | ns    | lower  | M | {_SIM} | server_polaris
core.polaris.select_frequency_ns.q64       | ns    | lower  | M | {_SIM} | server_polaris
core.polaris.select_frequency_ns.q256      | ns    | lower  | M | {_SIM} | server_polaris
core.estimator.observe.calls               | count | lower  | T | wall_s, setup_s | server_polaris, fleet_diurnal; 0 on server_governor
core.estimator.estimate.calls              | count | lower  | T | wall_s | server_polaris, fleet_diurnal; 0 on server_governor
core.estimator.self_s                      | s     | lower  | T | wall_s, setup_s | server_polaris, fleet_diurnal
core.estimator.share                       | ratio | lower  | T | wall_s | server_polaris, fleet_diurnal
core.estimator.observe_ns                  | ns    | lower  | M | wall_s, setup_s | server_polaris, fleet_diurnal
core.estimator.estimate_ns                 | ns    | lower  | M | wall_s | server_polaris, fleet_diurnal
db.server.submit.calls                     | count | lower  | T | {_SIM} | all
db.server.accept.calls                     | count | lower  | T | {_SIM} | all
db.server.self_s                           | s     | lower  | T | {_SIM} | all; largest share on server_governor
db.server.share                            | ratio | lower  | T | {_SIM} | all; largest share on server_governor
db.server.txn_roundtrip_ns                 | ns    | lower  | M | {_SIM} | server_governor
db.queues.edf_push_pop_ns                  | ns    | lower  | M | {_SIM} | server_polaris
cpu.core.start_job.calls                   | count | lower  | T | wall_s | server_governor, server_polaris
cpu.core.set_frequency.calls               | count | lower  | T | wall_s, sim_power_w | server_polaris, server_governor
cpu.core.transition_ratio                  | ratio | higher | T | sim_power_w | server_polaris, server_governor
cpu.core.self_s                            | s     | lower  | T | wall_s | server_governor, server_polaris
cpu.core.share                             | ratio | lower  | T | wall_s | server_governor, server_polaris
workloads.choose_draw_ns                   | ns    | lower  | M | wall_s | server_governor
workloads.arrivals.count                   | count | lower  | T | wall_s | server_governor
governors.ticks                            | count | lower  | T | wall_s | server_governor, a third of sweep_grid; 0 on server_polaris
governors.self_s                           | s     | lower  | T | wall_s | server_governor, sweep_grid
metrics.latency.on_completion.calls        | count | lower  | T | wall_s, peak_rss_mb | all
metrics.self_s                             | s     | lower  | T | wall_s | all
metrics.latency.on_completion_ns           | ns    | lower  | M | wall_s, peak_rss_mb | server_governor (longest run)
obs.trace_on_ratio                         | ratio | lower  | T | wall_s of traced figure runs | server_polaris
obs.trace_events                           | count | lower  | T | wall_s of traced figure runs | server_polaris
fleet.router.route.calls                   | count | lower  | T | {_SIM} | fleet_diurnal only; 0 elsewhere
fleet.router.self_s                        | s     | lower  | T | {_SIM} | fleet_diurnal only
fleet.router.share                         | ratio | lower  | T | {_SIM} | fleet_diurnal only
fleet.router.stale_bounce_ratio            | ratio | lower  | T | sim_ontime_rate | fleet_diurnal only
fleet.controller.ticks                     | count | lower  | T | wall_s | fleet_diurnal only
fleet.scale_actions                        | count | lower  | T | sim_power_w | fleet_diurnal only
fleet.self_s                               | s     | lower  | T | {_SIM} | fleet_diurnal only
fleet.router.route_ns.write                | ns    | lower  | M | {_SIM} | fleet_diurnal only
fleet.router.route_ns.read                 | ns    | lower  | M | {_SIM} | fleet_diurnal only
harness.experiment.build_train_s           | s     | lower  | T | setup_s | sweep_grid (12 short cells)
harness.experiment.collect_s               | s     | lower  | T | wall_s on short cells | sweep_grid
harness.parallel.serial_wall_s             | s     | lower  | T | wall_s | sweep_grid only
harness.parallel.speedup                   | ratio | higher | T | wall_s | sweep_grid only
harness.parallel.efficiency                | ratio | higher | T | wall_s | sweep_grid only
harness.parallel.overhead_s                | s     | lower  | T | wall_s | sweep_grid only
harness.parallel.pool_spinup_s             | s     | lower  | T | setup_s | sweep_grid only
harness.parallel.cache_replay_ms           | ms    | lower  | T | wall_s of cached figure runs | sweep_grid only
harness.parallel.config_key_us             | us    | lower  | M | wall_s of cached figure runs | sweep_grid only
bench.trace_overhead_ratio                 | ratio | lower  | T | context, not gated | all
bench.calib_spin_ns                        | ns    | lower  | M | context, not gated | all
bench.wall_norm                            | ratio | lower  | T | context, not gated | all
""")

#: ``.calls`` metrics the traced run must find non-zero / zero per
#: workload; a violation counts as a failed repetition.
_ALWAYS = ("sim.engine.events", "db.server.submit.calls",
           "db.server.accept.calls", "cpu.core.start_job.calls",
           "workloads.arrivals.count", "metrics.latency.on_completion.calls")
_POLARIS = ("core.polaris.select_frequency.calls",
            "core.polaris.enqueue_next.calls",
            "core.estimator.observe.calls", "core.estimator.estimate.calls")
_FLEET = ("fleet.router.route.calls", "fleet.controller.ticks")
CALL_EXPECTATIONS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "server_polaris": {"nonzero": _ALWAYS + _POLARIS,
                       "zero": _FLEET + ("governors.ticks",)},
    "server_governor": {"nonzero": _ALWAYS + ("governors.ticks",),
                        "zero": _POLARIS + _FLEET},
    "fleet_diurnal": {"nonzero": _ALWAYS + _POLARIS + _FLEET,
                      "zero": ("governors.ticks",)},
    "sweep_grid": {"nonzero": _ALWAYS + _POLARIS + ("governors.ticks",),
                   "zero": _FLEET},
}

#: Micro-driver sizes: operations per batch.  ns/op is the median of
#: ``MICRO_BATCHES`` batches.  Sized so all drivers together take ~5 s
#: (they run on every traced run of every workload).
MICRO_BATCHES = 7
MICRO_OPS: Dict[str, int] = {
    "sim.engine.schedule_pop_ns": 20_000,
    "sim.rng.draw_ns": 50_000,
    "core.polaris.select_frequency_ns.q0": 20_000,
    "core.polaris.select_frequency_ns.q4": 10_000,
    "core.polaris.select_frequency_ns.q16": 5_000,
    "core.polaris.select_frequency_ns.q64": 2_000,
    "core.polaris.select_frequency_ns.q256": 1_000,
    "core.estimator.observe_ns": 20_000,
    "core.estimator.estimate_ns": 50_000,
    "db.server.txn_roundtrip_ns": 10_000,
    "db.queues.edf_push_pop_ns": 20_000,
    "workloads.choose_draw_ns": 50_000,
    "metrics.latency.on_completion_ns": 20_000,
    "fleet.router.route_ns": 10_000,
    "harness.parallel.config_key_us": 200,
}

#: How long one driver run measures (``--seconds``; BENCHMARK.json
#: ``run_seconds``), and the repetition count when ``--seconds`` is not
#: given.  A repetition takes 1-1.5 s, so a run holds 12-20 of them
#: (fewer when the host is slow); the driver's 92 runs take ~47 min of
#: its 57.
RUN_SECONDS = 30
DEFAULT_REPS = 12
DEFAULT_SEED = 42
SETUP_PROBES = 5
#: The host-speed reference (``micro.reference_slice``): events per
#: slice (~0.2 s), and the kernel's ns per event on this container in a
#: quiet minute.  The constant only fixes the scale of corrected times
#: (on a quiet host they equal raw ones); it must never change.
REFERENCE_EVENTS = 250_000
REFERENCE_NS = 630.0


def gated_end_to_end() -> Tuple[EndToEnd, ...]:
    return tuple(m for m in END_TO_END if m.gated)


def benchmark_json() -> dict:
    """The driver-facing contract, generated from the tables above."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in gated_end_to_end()],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
