"""Measure one workload in this interpreter.

Two modes, the driver's ``--trace 0|1``:

* **untraced** (``trace=False``): one discarded warm-up repetition, then
  measured repetitions of the single public call and set-up probes in
  fresh interpreters, each bracketed by host-speed slices
  (:class:`HostSpeed`), and peak RSS --- every end-to-end metric.
* **traced** (``trace=True``): a few untraced repetitions for the
  ratios (of corrected times), the micro-drivers, then one repetition
  under ``tracing``'s wrappers (``sweep_grid`` at jobs=1 through a cold
  cache, then replayed warm) and a small cell with the program's own
  ``repro.obs`` tracer off and on --- every per-layer metric.

Every repetition goes through a :class:`RepLedger`: it fails if it
raises, if its books do not balance, or if its fingerprint differs from
the first repetition's (for ``sweep_grid`` the first is the jobs=1
run, so a pooled run that differs from serial fails).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness import experiment, parallel
from repro.harness.experiment import ExperimentConfig, ExperimentResult

from bench import ROOT, micro, scratch_dir, spec, tracing, workloads

#: Result fields that depend on the host or echo the input.
_NOT_FINGERPRINTED = ("wall_seconds", "config")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Hermetic environment
# ----------------------------------------------------------------------
def enter_hermetic_env(scratch: Path) -> None:
    """Scrub every ``REPRO_*`` switch and point cache, bench file and
    temp files at ``scratch``, so no cache entry or bench file leaks
    between workloads or into the repo root."""
    for name in list(os.environ):
        if name in ("REPRO_SIMSAN", "REPRO_TRACE", "REPRO_FAULTS",
                    "REPRO_JOBS") or name.startswith("REPRO_BENCH_"):
            del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    os.environ["REPRO_BENCH_FILE"] = str(scratch / "BENCH_harness.json")
    os.environ["TMPDIR"] = str(scratch)


def environment(seed: int, reps: Optional[int], seconds: Optional[float],
                calib_spin_ns: Optional[float]) -> dict:
    """The context ``BENCH_harness.json`` never had."""
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "bench.calib_spin_ns": calib_spin_ns,
        "started_at": time.time(),
        "seed": seed,
        "reps": reps,
        "seconds": seconds,
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def fingerprint(result: ExperimentResult) -> str:
    """sha256 of the canonical JSON of every seed-deterministic field."""
    fields = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result)
              if f.name not in _NOT_FINGERPRINTED}
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def combined_fingerprint(cell_fingerprints: Sequence[str]) -> str:
    if len(cell_fingerprints) == 1:
        return cell_fingerprints[0]
    return hashlib.sha256("".join(cell_fingerprints).encode()).hexdigest()


class RepLedger:
    """Counts attempted and failed repetitions, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.cell_fingerprints: Optional[List[str]] = None

    def record(self, label: str, results: Sequence[ExperimentResult],
               same_fingerprint: bool = True) -> None:
        """Check one finished repetition."""
        problems = []
        for index, result in enumerate(results):
            settled = result.completed + result.rejected + result.lost
            if result.offered != settled:
                problems.append(
                    f"cell {index}: books do not balance (offered "
                    f"{result.offered} != completed+rejected+lost {settled})")
        if same_fingerprint:
            prints = [fingerprint(result) for result in results]
            if self.cell_fingerprints is None:
                self.cell_fingerprints = prints
            elif prints != self.cell_fingerprints:
                problems.append("sim_fingerprint differs from the first "
                                "repetition of the same seed")
        self.check(label, problems)

    def check(self, label: str, problems: Sequence[str]) -> None:
        """Count one attempt; it fails if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def sim_fingerprint(self) -> Optional[str]:
        if self.cell_fingerprints is None:
            return None
        return combined_fingerprint(self.cell_fingerprints)


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def execute(cells: Sequence[ExperimentConfig], jobs: int,
            cache_dir: Optional[Path] = None
            ) -> Tuple[float, List[ExperimentResult]]:
    """The single public call, timed: ``run_experiment`` for one cell,
    ``SweepRunner.run`` for a grid (through the cache iff ``cache_dir``)."""
    start = time.perf_counter()
    if len(cells) == 1:
        results = [experiment.run_experiment(cells[0])]
    else:
        runner = parallel.SweepRunner(jobs=jobs, cache_dir=cache_dir,
                                      use_cache=cache_dir is not None)
        results = runner.run(cells)
    return time.perf_counter() - start, results


class HostSpeed:
    """Corrects host times for the speed of the host while they ran.

    This container's cores are shared: for seconds at a time everything
    runs 30-60 % slower, CPU time included, so no statistic of raw
    times is steady from run to run.  Every timed step is therefore
    bracketed by two slices of ``micro.reference_slice`` and its time
    scaled by ``spec.REFERENCE_NS`` over their mean; the slice closing
    one bracket opens the next.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self.open()

    def open(self) -> None:
        """Call just before a step that does not directly follow one."""
        self.slices.append(micro.reference_slice())

    def corrected(self, raw_s: float) -> float:
        """Call as soon as the step has ended."""
        self.open()
        return raw_s * spec.REFERENCE_NS / statistics.fmean(self.slices[-2:])

    def calib_ns(self) -> float:
        return statistics.median(self.slices)


class Measurement:
    """Shared state of one workload's run: ledger, calibration, timing."""

    def __init__(self, name: str, seed: int, smoke: bool,
                 seconds: Optional[float], reps: Optional[int],
                 setup_probes: int):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.cells = workloads.build(name, seed, smoke)
        self.warm_cells = workloads.build(name, seed, smoke=True)
        self.pooled = len(self.cells) > 1
        self.jobs = nproc() if self.pooled else 1
        self.seconds = seconds
        self.reps = reps
        self.ledger = RepLedger()
        self.host: Optional[HostSpeed] = None  # from the warm-up on
        self.setup_probes = setup_probes
        self.setups: List[Tuple[float, float]] = []  # (raw, corrected)
        #: ru_maxrss (KiB) of this interpreter after the second measured
        #: repetition: the peak creeps up with the repetition count
        #: (44 MiB after four of server_polaris, 50 after five), and how
        #: many fit ``--seconds`` depends on the machine.
        self.rss_self_kib: Optional[int] = None
        self._pool_stopped = False

    def repetition(self, label: str, cells: Sequence[ExperimentConfig],
                   jobs: int, cache_dir: Optional[Path] = None,
                   same_fingerprint: bool = True
                   ) -> Tuple[Optional[float], List[ExperimentResult]]:
        """One checked repetition; ``(None, [])`` if it raised."""
        try:
            wall, results = execute(cells, jobs, cache_dir)
        except Exception:  # a failed repetition is counted, not fatal
            self.ledger.check(label, [traceback.format_exc()])
            return None, []
        self.ledger.record(label, results, same_fingerprint)
        return wall, results

    def warm_up(self) -> None:
        """The discarded repetition (imports, ``.pyc``, code paths, pool
        spin-up), then the slice that opens the first bracket."""
        self.repetition("warm-up", self.warm_cells, self.jobs,
                        same_fingerprint=False)
        self.host = HostSpeed()

    def setup_probe(self) -> None:
        raw = _setup_probe(self.name, self.seed)
        self.setups.append((raw, self.host.corrected(raw)))

    def repeat(self, reps: Optional[int], budget_s: Optional[float],
               minimum: int
               ) -> Tuple[List[Tuple[float, float]], List[ExperimentResult]]:
        """Measured untraced repetitions: exactly ``reps`` if given,
        else at least ``minimum`` and as many as end within ``budget_s``
        from now, slices and set-up probes included.  A set-up probe
        follows every other repetition, so that the probes sample the
        run and not one (possibly slow) moment of it.  Returns (raw,
        corrected) walls and the first repetition's results."""
        begun = time.perf_counter()
        walls: List[Tuple[float, float]] = []
        first: List[ExperimentResult] = []
        count = 0

        def another() -> bool:
            if reps is not None:
                return count < reps
            if count < minimum:
                return True
            # Start a repetition only if it and its slice are expected
            # to fit; a workload whose every repetition raises stops at
            # the minimum.
            return bool(walls) and time.perf_counter() - begun + 1.2 * \
                statistics.median(raw for raw, _ in walls) <= (budget_s or 0.0)

        while another():
            wall, results = self.repetition(f"rep {count}", self.cells,
                                            self.jobs)
            count += 1
            if wall is not None:
                walls.append((wall, self.host.corrected(wall)))
                first = first or results
            if len(walls) == 2:
                self.rss_self_kib = _self_rss_kib()
            if count % 2 and len(self.setups) < self.setup_probes:
                self.setup_probe()
        while len(self.setups) < self.setup_probes:
            self.setup_probe()
        return walls, first

    def stop_pool(self) -> None:
        """Shut the sweep pool down and wait for its processes."""
        if self.pooled and not self._pool_stopped:
            parallel.shared_pool(self.jobs).shutdown(wait=True)
            parallel.shutdown_shared_pool()
            self._pool_stopped = True


def _sim_metrics(results: Sequence[ExperimentResult]) -> Dict[str, float]:
    offered = sum(r.offered for r in results)
    miss = sum(r.missed for r in results) / offered if offered else 0.0
    return {
        "sim_power_w": statistics.fmean(r.avg_power_watts for r in results),
        "sim_miss_rate": miss,
        "sim_ontime_rate": 1.0 - miss,
    }


def _self_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _setup_probe(name: str, seed: int) -> float:
    """One ``setup_s`` sample: a fresh interpreter timing its own cold
    import of the experiment stack plus one build-and-train-only cell."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, text=True, capture_output=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _timing(pairs: Sequence[Tuple[float, float]],
            of: Callable[[float], float] = lambda seconds: seconds) -> dict:
    """Median of ``of`` the corrected times with quartiles and the
    sample count beside it, and the median of ``of`` the raw ones."""
    values = [of(fair) for _, fair in pairs]
    entry = {"value": statistics.median(values),
             "raw": statistics.median(of(raw) for raw, _ in pairs),
             "samples": values, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3)
    return entry


def measure_untraced(m: Measurement) -> dict:
    """Every end-to-end metric of one workload."""
    m.warm_up()
    budget = m.seconds
    if m.pooled:
        # The jobs=1 reference every pooled repetition must match.
        serial_wall, _ = m.repetition("serial reference", m.cells, 1)
        if budget is not None and serial_wall is not None:
            budget -= serial_wall
        m.host.open()
    walls, results = m.repeat(m.reps, budget, minimum=2)
    m.stop_pool()
    # Linux ru_maxrss is KiB.  RUSAGE_CHILDREN is the largest waited-for
    # child, so the (now joined) pool counts as ``jobs`` such workers.
    rss_kib = m.rss_self_kib or _self_rss_kib()
    if m.pooled:
        rss_kib += m.jobs * resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss

    record = _record(m)
    if walls:
        events = sum(r.sim_events for r in results)
        metrics = {
            "setup_s": _timing(m.setups),
            "wall_s": _timing(walls),
            "events_per_s": _timing(walls, lambda seconds: events / seconds),
            "peak_rss_mb": {"value": rss_kib / 1024.0},
            **{k: {"value": v} for k, v in _sim_metrics(results).items()},
        }
        metrics["failed_share"] = {"value": m.ledger.failed_share}
        record["end_to_end"] = _with_units(metrics, spec.END_TO_END)
    return record


def measure_traced(m: Measurement, scratch: Path) -> dict:
    """Every per-layer metric of one workload."""
    values: Dict[str, float] = {metric.name: 0.0 for metric in spec.PER_LAYER}
    if m.pooled:
        # First use of the pool in this interpreter: spawn + warm-up
        # initializer + one no-op round trip.
        start = time.perf_counter()
        parallel.shared_pool(m.jobs).submit(int).result()
        values["harness.parallel.pool_spinup_s"] = time.perf_counter() - start
    m.warm_up()

    # Untraced repetitions: the denominators of every ratio below.  The
    # grid's traced run is serial, so its untraced form is a jobs=1 run.
    serial_raw: Optional[float] = None
    serial_wall = 0.0
    serial_results: List[ExperimentResult] = []
    if m.pooled:
        serial_raw, serial_results = m.repetition("serial", m.cells, 1)
        serial_wall = m.host.corrected(serial_raw or 0.0)
    walls, results = m.repeat(
        None if m.reps is None else min(m.reps, 2),
        None if m.seconds is None else m.seconds / 3.0,
        minimum=1 if m.pooled else 2)
    if not walls or (m.pooled and serial_raw is None):
        return _record(m)  # nothing to relate the traced run to
    pooled_wall = statistics.median(fair for _, fair in walls)
    untraced_wall = serial_wall if m.pooled else pooled_wall

    bt_cells = workloads.build_train_only(m.cells)
    values["harness.experiment.build_train_s"] = statistics.median(
        sum(execute([cell], 1)[0] for cell in bt_cells) for _ in range(3))
    values.update(micro.run_all(m.seed, m.smoke))

    ledger = tracing.SpanLedger()
    cache_dir = scratch / "traced-cache" if m.pooled else None
    m.host.open()
    with tracing.installed(ledger):
        traced_raw, traced = m.repetition("traced", m.cells, 1, cache_dir)
    if traced_raw is None:
        return _record(m)
    traced_wall = m.host.corrected(traced_raw)
    bt_ledger = tracing.SpanLedger()
    with tracing.installed(bt_ledger):
        for cell in bt_cells:
            experiment.run_experiment(cell)
    values.update(tracing.layer_metrics(
        ledger, bt_ledger.self_s(tracing.ROOT_SPAN)))
    events = sum(r.sim_events for r in traced)
    values["sim.engine.events"] = events
    values["sim.engine.cancelled_per_event"] = \
        ledger.calls("sim.engine.cancel") / events
    values.update(_fleet_action_metrics(traced))
    if m.pooled:
        values.update({
            "harness.parallel.serial_wall_s": serial_wall,
            "harness.parallel.speedup": serial_wall / pooled_wall,
            # Cells time themselves, uncorrected: relate them to the
            # uncorrected wall of the repetition they ran in.
            "harness.parallel.efficiency":
                sum(r.wall_seconds for r in results) / (m.jobs * walls[0][0]),
            "harness.parallel.overhead_s":
                serial_raw - sum(r.wall_seconds for r in serial_results),
        })
        replay_wall, _ = m.repetition("cache replay", m.cells, 1, cache_dir)
        if replay_wall is not None:
            values["harness.parallel.cache_replay_ms"] = replay_wall * 1e3
    values.update(_obs_metrics(m))
    values["bench.trace_overhead_ratio"] = traced_wall / untraced_wall
    values["bench.calib_spin_ns"] = m.host.calib_ns()
    values["bench.wall_norm"] = \
        untraced_wall / (spec.REFERENCE_NS * 1e-9 * events)

    m.ledger.check("call expectations", [
        f"{name} is {values[name]:g}, expected {kind}"
        for kind, names in spec.CALL_EXPECTATIONS[m.name].items()
        for name in names if (values[name] != 0) != (kind == "nonzero")])

    record = _record(m)
    record["per_layer"] = _with_units(
        {name: {"value": value} for name, value in values.items()},
        spec.PER_LAYER)
    record["spans"] = ledger.rows()
    return record


def _fleet_action_metrics(results: Sequence[ExperimentResult]
                          ) -> Dict[str, float]:
    """Outcome counts the fleet reports itself (``fleet_actions``)."""
    actions: Dict[str, int] = {}
    for result in results:
        for key, count in result.fleet_actions.items():
            actions[key] = actions.get(key, 0) + count
    reads = actions.get("routed_reads", 0)
    return {
        "fleet.router.stale_bounce_ratio":
            actions.get("stale_read_bounces", 0) / reads if reads else 0.0,
        "fleet.scale_actions":
            actions.get("scale_out", 0) + actions.get("scale_in", 0),
    }


def _obs_metrics(m: Measurement) -> Dict[str, float]:
    """``repro.obs`` off and on, back to back, on the first warm-up-
    sized cell (a full governor cell records 1.4M trace events and
    would take as long as every other step of the run together)."""
    cell = m.warm_cells[0]
    off_wall, _ = m.repetition("obs off", [cell], 1, same_fingerprint=False)
    on_wall, on = m.repetition(
        "obs on", [dataclasses.replace(cell, trace=True)], 1,
        same_fingerprint=False)
    if off_wall is None or on_wall is None:
        return {}
    return {"obs.trace_on_ratio": on_wall / off_wall,
            "obs.trace_events": on[0].trace_events}


def _record(m: Measurement) -> dict:
    return {
        "workload": m.name,
        "seed": m.seed,
        "attempted": m.ledger.attempted,
        "failed": m.ledger.failed,
        "failures": m.ledger.failures,
        "sim_fingerprint": m.ledger.sim_fingerprint,
        "bench.calib_spin_ns": m.host.calib_ns() if m.host else None,
    }


def _with_units(metrics: Dict[str, dict], table) -> Dict[str, dict]:
    """Attach units, in the table's order; every name must be present."""
    return {metric.name: {**metrics[metric.name], "unit": metric.unit}
            for metric in table}


def measure(name: str, seed: int, trace: bool, smoke: bool = False,
            seconds: Optional[float] = None, reps: Optional[int] = None
            ) -> dict:
    """Run one workload in this interpreter; returns its record.
    Repeats ``reps`` times, or for ``seconds`` if ``reps`` is None."""
    with scratch_dir("run") as scratch:
        enter_hermetic_env(scratch)
        setup_probes = 0 if trace else 1 if smoke else spec.SETUP_PROBES
        m = Measurement(name, seed, smoke, seconds, reps, setup_probes)
        try:
            return measure_traced(m, scratch) if trace \
                else measure_untraced(m)
        finally:
            m.stop_pool()
