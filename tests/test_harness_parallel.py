"""Parallel sweep runner: equivalence, caching, key discipline."""

import dataclasses
import os
import pickle
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from pinned import fingerprint

from repro.fleet import FleetConfig
from repro.harness.experiment import (
    ExperimentConfig, dynamics_key, rescored, run_experiment,
)
from repro.harness.figures import FIGURES, FigureOptions, run_figure
from repro.harness.parallel import (
    SweepCache, SweepRunner, code_version_salt, config_key, resolve_jobs,
)
from repro.harness.profiling import TimingReport
from repro.harness.schemes import SCHEMES
from repro.metrics.latency import LatencyRecorder

FAST = dict(workers=2, warmup_seconds=0.3, test_seconds=0.8, seed=5)
#: Tracing pinned off, for tests that count simulations: ambient
#: ``REPRO_TRACE=1`` makes every cell read deadlines (trace arguments),
#: and then no two cells share a simulation.
UNTRACED = dict(FAST, trace=False)


def small_grid():
    return [ExperimentConfig(scheme=scheme, slack=slack, **FAST)
            for scheme in ("polaris", "static-2.8")
            for slack in (10.0, 70.0)]


def sweep(configs, jobs):
    return SweepRunner(jobs=jobs, use_cache=False).run(configs)


def comparable(result):
    """Every seed-deterministic field (drops host-dependent timing)."""
    return (result.scheme_label, result.avg_power_watts,
            result.failure_rate, result.offered, result.completed,
            result.missed, result.rejected, result.throughput,
            result.per_workload_failure, result.freq_residency,
            result.cpu_energy_joules, result.wall_energy_joules)


# ----------------------------------------------------------------------
# jobs resolution
# ----------------------------------------------------------------------
def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(2) == 2
    assert resolve_jobs() == 3
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs() >= 1


def test_resolve_jobs_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolve_jobs(0)


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def test_config_key_stable_and_sensitive():
    a = ExperimentConfig(scheme="polaris", slack=10.0, **FAST)
    b = ExperimentConfig(scheme="polaris", slack=10.0, **FAST)
    assert config_key(a) == config_key(b)
    changed = dataclasses.replace(a, seed=a.seed + 1)
    assert config_key(changed) != config_key(a)
    # Every config field participates in the key.
    assert config_key(dataclasses.replace(a, slack=11.0)) != config_key(a)
    assert config_key(
        dataclasses.replace(a, routing="packing")) != config_key(a)


def test_config_key_salt_invalidates():
    """A code-version change must miss the old entries."""
    config = ExperimentConfig(scheme="polaris", slack=10.0, **FAST)
    assert config_key(config, salt="v1") != config_key(config, salt="v2")
    assert config_key(config) == config_key(config, code_version_salt())


def test_code_version_salt_is_memoized():
    assert code_version_salt() == code_version_salt()
    assert len(code_version_salt()) == 64


def test_config_key_salted_by_trace_env(monkeypatch):
    """REPRO_TRACE=1 changes results' observable side channel, so traced
    and untraced entries must not share cache keys."""
    from repro.obs.trace import TRACE_ENV
    config = ExperimentConfig(scheme="polaris", slack=10.0, **FAST)
    monkeypatch.delenv(TRACE_ENV, raising=False)
    untraced = config_key(config)
    monkeypatch.setenv(TRACE_ENV, "1")
    assert config_key(config) != untraced


# ----------------------------------------------------------------------
# cache store
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_clear(tmp_path):
    cache = SweepCache(tmp_path / "c")
    config = ExperimentConfig(scheme="static-2.8", slack=40.0, **FAST)
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
    (result,) = runner.run([config])
    key = config_key(config)
    restored = cache.get(key)
    assert restored is not None
    assert comparable(restored) == comparable(result)
    assert cache.clear() == 1
    assert cache.get(key) is None
    assert cache.clear() == 0


def test_cache_tolerates_corrupt_entry(tmp_path):
    cache = SweepCache(tmp_path / "c")
    config = ExperimentConfig(scheme="static-2.8", slack=40.0, **FAST)
    key = config_key(config)
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is None
    # 'g' is a pickle GET opcode whose operand parse raises ValueError,
    # a different failure family than UnpicklingError.
    path.write_bytes(b"garbage\n")
    assert cache.get(key) is None
    # A wrong-typed pickle is also a miss, not a crash.
    path.write_bytes(pickle.dumps({"nope": 1}))
    assert cache.get(key) is None
    # And the runner recovers by re-simulating.
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
    (result,) = runner.run([config])
    assert result.avg_power_watts > 0
    assert runner.stats.executed == 1


# ----------------------------------------------------------------------
# runner semantics
# ----------------------------------------------------------------------
def test_second_run_is_all_cache_hits(tmp_path):
    grid = small_grid()
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
    first = runner.run(grid)
    assert runner.stats.executed == len(grid)
    assert runner.stats.cache_hits == 0
    second = runner.run(grid)
    assert runner.stats.executed == 0
    assert runner.stats.cache_hits == len(grid)
    assert [comparable(r) for r in first] == [comparable(r) for r in second]


def test_changed_cell_only_reruns_that_cell(tmp_path):
    grid = small_grid()
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
    runner.run(grid)
    grid[2] = dataclasses.replace(grid[2], seed=99)
    runner.run(grid)
    assert runner.stats.cache_hits == len(grid) - 1
    assert runner.stats.executed == 1


def test_interrupted_sweep_resumes_from_partial_cache(tmp_path):
    """Cells are cached as they finish, not at sweep end, so an
    interrupted sweep resumes from what it already simulated."""
    grid = small_grid()
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
    calls = []
    original_put = runner.cache.put

    def put_then_die(key, result):
        original_put(key, result)
        calls.append(key)
        if len(calls) == 2:
            raise KeyboardInterrupt

    runner.cache.put = put_then_die
    with pytest.raises(KeyboardInterrupt):
        runner.run(grid)
    resumed = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
    resumed.run(grid)
    assert resumed.stats.cache_hits == 2
    assert resumed.stats.executed == 2


def test_traced_cells_bypass_cache(tmp_path):
    """A cell exporting trace artifacts must re-run every time: a cache
    hit would skip writing the files the user asked for."""
    config = dataclasses.replace(
        small_grid()[0],
        trace_path=str(tmp_path / "cell.trace.json"),
        trace_series_path=str(tmp_path / "cell.series.csv"))
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
    runner.run([config])
    assert runner.stats.executed == 1
    (tmp_path / "cell.trace.json").unlink()
    runner.run([config])
    assert runner.stats.executed == 1
    assert runner.stats.cache_hits == 0
    # The artifact was re-written on the second run too.
    assert (tmp_path / "cell.trace.json").exists()
    assert (tmp_path / "cell.series.csv").exists()
    # Untraced sibling cells still cache normally.
    plain = small_grid()[0]
    runner.run([plain])
    runner.run([plain])
    assert runner.stats.cache_hits == 1


def test_no_cache_mode_never_touches_disk(tmp_path):
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c", use_cache=False)
    runner.run(small_grid()[:1])
    assert not (tmp_path / "c").exists()


def test_parallel_matches_serial_cell_for_cell(tmp_path):
    """The Fig. 6-shaped equivalence the tentpole promises: a (scheme x
    slack) grid run with jobs=2 is value-identical to jobs=1."""
    grid = small_grid()
    serial = sweep(grid, jobs=1)
    parallel = sweep(grid, jobs=2)
    assert len(serial) == len(parallel) == len(grid)
    for s, p in zip(serial, parallel):
        assert comparable(s) == comparable(p)


def test_parallel_populates_cache_for_serial(tmp_path):
    """Cache entries are execution-mode agnostic, and a cached re-run
    returns what the pooled run computed."""
    grid = small_grid()
    pooled = SweepRunner(jobs=2, cache_dir=tmp_path / "c")
    first = pooled.run(grid)
    assert pooled.stats.executed == len(grid)
    for jobs in (2, 1):
        runner = SweepRunner(jobs=jobs, cache_dir=tmp_path / "c")
        again = runner.run(grid)
        assert runner.stats.cache_hits == len(grid)
        assert [comparable(r) for r in again] \
            == [comparable(r) for r in first]


def test_slack_sweep_parallel_render_identical(tmp_path):
    """Figure-level equivalence: rendered rows are byte-identical."""
    base = dict(workers=2, warmup_seconds=0.3, test_seconds=0.8,
                seed=5, slacks=(10, 70), use_cache=False)
    serial = run_figure(FIGURES["fig12"], FigureOptions(jobs=1, **base))
    parallel = run_figure(FIGURES["fig12"], FigureOptions(jobs=2, **base))
    assert serial.render() == parallel.render()
    assert serial.power() == parallel.power()
    assert serial.failure() == parallel.failure()


def test_runner_reports_cells(tmp_path):
    report = TimingReport("unit", jobs=1)
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c", report=report)
    grid = small_grid()[:2]
    runner.run(grid)
    runner.run(grid)
    assert len(report.cells) == 4
    assert report.cache_hits == 2
    assert report.cache_misses == 2
    executed = [c for c in report.cells if not c.cached]
    assert all(c.sim_events > 0 for c in executed)
    assert all(c.wall_seconds > 0 for c in executed)
    assert report.aggregate_events_per_sec() > 0
    assert "cells: 4" in report.render()


def test_cli_flags(tmp_path, monkeypatch):
    from repro.harness.cli import build_parser
    args = build_parser().parse_args(
        ["fig6", "--jobs", "4", "--no-cache", "--clear-cache",
         "--trace", str(tmp_path / "traces")])
    assert args.jobs == 4
    assert args.no_cache and args.clear_cache
    assert args.trace == str(tmp_path / "traces")


def test_slack_sweep_trace_dir_writes_per_cell_artifacts(tmp_path):
    """--trace DIR exports one Perfetto trace + series CSV per grid
    cell, named by a stable cell slug."""
    import os
    base = dict(workers=2, warmup_seconds=0.3, test_seconds=0.8,
                seed=5, slacks=(10,), use_cache=False)
    options = FigureOptions(jobs=1, trace_dir=str(tmp_path / "t"), **base)
    run_figure(FIGURES["fig12"], options)
    names = sorted(os.listdir(tmp_path / "t"))
    traces = [n for n in names if n.endswith(".trace.json")]
    assert traces == sorted(
        f"tpcc-{scheme}-load0.6-slack10.trace.json" for scheme in
        ("polaris", "polaris-fifo", "polaris-fifo-noarrive"))
    assert sum(n.endswith(".series.csv") for n in names) == 3
    from repro.obs.export import validate_chrome_trace
    for name in traces:
        stats = validate_chrome_trace(str(tmp_path / "t" / name))
        assert stats["events"] > 0


# ----------------------------------------------------------------------
# shared dynamics: one simulation per group of cells
# ----------------------------------------------------------------------
GOVERNOR_SCHEMES = sorted(name for name, scheme in SCHEMES.items()
                          if not scheme.uses_scheduler)
#: Per benchmark, a test window that keeps a cell at a few thousand
#: events (YCSB transactions are ~20x shorter than TPC-C's).
SHARED_SECONDS = {"tpcc": 0.4, "tpce": 0.4, "ycsb-a": 0.1}
SHARED_SLACKS = (10.0, 40.0, 100.0)


def shared_grid(benchmark, slacks):
    base = dict(benchmark=benchmark, workers=2, warmup_seconds=0.2,
                test_seconds=SHARED_SECONDS[benchmark], seed=5,
                trace=False)
    grid = [ExperimentConfig(scheme=scheme, slack=slack, **base)
            for scheme in GOVERNOR_SCHEMES for slack in slacks]
    # An overloaded group whose backlog outlives the drain: the lost
    # requests miss every deadline, whatever the slack.
    grid += [ExperimentConfig(scheme="static-1.2", slack=slack,
                              load_fraction=0.9, drain_limit_seconds=0.05,
                              **base) for slack in slacks]
    return grid


@pytest.mark.parametrize("bench_name", sorted(SHARED_SECONDS))
def test_slack_sweep_of_a_governor_scheme_is_one_simulation(bench_name):
    """The licence for sharing: every cell a group serves equals the
    standalone run of that cell, whichever member is simulated."""
    assert {"ondemand", "conservative", "static-2.8"} \
        <= set(GOVERNOR_SCHEMES)
    groups = len(GOVERNOR_SCHEMES) + 1
    standalone = {}
    for jobs, slacks in ((1, SHARED_SLACKS), (2, SHARED_SLACKS[::-1])):
        grid = shared_grid(bench_name, slacks)
        runner = SweepRunner(jobs=jobs, use_cache=False)
        results = runner.run(grid)
        assert runner.stats.executed == len(grid)
        assert runner.stats.simulated == groups
        for config, result in zip(grid, results):
            cell = (config.scheme, config.slack, config.load_fraction)
            if cell not in standalone:
                standalone[cell] = run_experiment(config)
            expected = standalone[cell]
            assert fingerprint(result) == fingerprint(expected)
            # ... and field for field, the host's wall clock aside.
            assert dataclasses.replace(result, wall_seconds=0.0) \
                == dataclasses.replace(expected, wall_seconds=0.0)
        lossy = results[-len(slacks):]
        assert all(r.lost > 0 and r.missed >= r.lost for r in lossy)
        # Cell walls stay additive: a group's wall is split, not copied.
        assert sum(runner.stats.cell_seconds) \
            <= runner.stats.wall_seconds * jobs


#: case -> (config fields, environment) of a two-slack sweep in which
#: something other than the recorder reads a deadline.
NEVER_SHARES = {
    "polaris": (dict(scheme="polaris"), {}),
    "nonclairvoyant": (dict(scheme="nonclairvoyant"), {}),
    "faults": (dict(scheme="ondemand", faults="burst"), {}),
    "trace-path": (dict(scheme="ondemand"), {}),
    "trace-env": (dict(scheme="ondemand"), {"REPRO_TRACE": "1"}),
    "faults-env": (dict(scheme="ondemand"), {"REPRO_FAULTS": "burst"}),
    "fleet": (dict(scheme="ondemand", fleet=FleetConfig(
        shards=1, replicas_per_shard=0, elastic=False, node_workers=2,
        node_request_handlers=1)), {}),
}


@pytest.mark.parametrize("case", sorted(NEVER_SHARES))
def test_cells_that_read_a_deadline_never_share(case, monkeypatch, tmp_path):
    """A scheduler, a fault plan, a tracer and the fleet's shard books
    all read deadlines during the run: one simulation per cell."""
    fields, env = NEVER_SHARES[case]
    for name in ("REPRO_TRACE", "REPRO_FAULTS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    grid = [ExperimentConfig(slack=slack, **dict(FAST, **fields))
            for slack in (10.0, 70.0)]
    if case == "trace-path":
        for config in grid:
            config.trace_path = str(
                tmp_path / f"slack{config.slack:g}.trace.json")
    assert dynamics_key(grid[0]) != dynamics_key(grid[1])
    runner = SweepRunner(jobs=1, use_cache=False)
    runner.run(grid)
    assert runner.stats.simulated == 2


def test_half_cached_group_simulates_once_for_the_missing_members(tmp_path):
    grid = [ExperimentConfig(scheme="ondemand", slack=slack, **UNTRACED)
            for slack in (10.0, 40.0, 70.0)]
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c")
    runner.run(grid[1:2])
    results = runner.run(grid)
    assert runner.stats.cache_hits == 1
    assert runner.stats.executed == 2
    assert runner.stats.simulated == 1
    assert [fingerprint(r) for r in results] \
        == [fingerprint(run_experiment(config)) for config in grid]
    runner.run(grid)
    assert runner.stats.cache_hits == 3
    assert runner.stats.simulated == 0


@pytest.mark.parametrize("bad_first", [False, True])
def test_invalid_derived_cell_raises_as_standalone(bad_first):
    good = ExperimentConfig(scheme="ondemand", slack=10.0, **UNTRACED)
    bad = dataclasses.replace(good, slack=-1.0)
    assert dynamics_key(good) == dynamics_key(bad)
    with pytest.raises(ValueError, match="slack") as standalone:
        run_experiment(bad)
    with pytest.raises(ValueError, match="slack") as swept:
        sweep([bad, good] if bad_first else [good, bad], jobs=1)
    assert str(swept.value) == str(standalone.value)


def test_rescored_refuses_a_different_simulation():
    config = ExperimentConfig(scheme="ondemand", slack=10.0, **FAST)
    recorder = LatencyRecorder()
    result = run_experiment(config, recorder=recorder)
    for other in (dataclasses.replace(config, seed=6),
                  dataclasses.replace(config, scheme="conservative")):
        with pytest.raises(ValueError, match="dynamics"):
            rescored(result, recorder, other)


def test_report_counts_a_shared_simulation_once():
    report = TimingReport("unit", jobs=1)
    runner = SweepRunner(jobs=1, use_cache=False, report=report)
    results = runner.run(
        [ExperimentConfig(scheme="ondemand", slack=slack, **UNTRACED)
         for slack in (10.0, 40.0, 70.0)])
    assert [c.shared for c in report.cells] == [False, True, True]
    assert report.simulations == 1
    assert report.aggregate_events_per_sec() == pytest.approx(
        results[0].sim_events / report.sweep_wall_seconds)
    assert ("cells: 3 (0 cached, 1 simulated, 2 scored from a shared "
            "simulation)") in report.render()


# ----------------------------------------------------------------------
# persistent pool (reuse across sweeps: tests/test_run_flags.py)
# ----------------------------------------------------------------------
def test_config_wire_roundtrip():
    from repro.harness.parallel import _config_to_wire
    config = ExperimentConfig(scheme="static-1.2", slack=10.0, **FAST)
    wire = _config_to_wire(config)
    # Only overridden fields cross the process boundary.
    assert set(wire) == {"scheme", "slack", "workers",
                         "warmup_seconds", "test_seconds", "seed"}
    assert ExperimentConfig(**wire) == config
    # Defaults round-trip to an empty payload.
    assert _config_to_wire(ExperimentConfig()) == {}


def test_broken_pool_degrades_to_serial(tmp_path, monkeypatch):
    """A poisoned executor must not fail the sweep: the runner discards
    the pool and re-runs the unfinished cells in-process."""
    from concurrent.futures.process import BrokenProcessPool
    from repro.harness import parallel as par

    def poisoned(workers):
        raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(par, "shared_pool", poisoned)
    grid = small_grid()
    runner = SweepRunner(jobs=2, cache_dir=tmp_path / "c")
    degraded = runner.run(grid)
    assert runner.stats.executed == len(grid)
    serial = sweep(grid, jobs=1)
    assert [comparable(r) for r in degraded] \
        == [comparable(r) for r in serial]


def test_broken_pool_reruns_only_unfinished(tmp_path, monkeypatch):
    """A pool that dies after one group landed re-runs the unfinished
    groups in-process: every group runs exactly once, never half ---
    whether the group that landed is the shared one or not."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool
    from repro.harness import parallel as par

    class FlakyPool:
        """Submission number ``lands`` completes, every other breaks."""

        def __init__(self, lands):
            self.lands = lands
            self.submissions = 0

        def submit(self, fn, groups):
            self.submissions += 1
            future = Future()
            if self.submissions == self.lands:
                future.set_result(fn(groups))
            else:
                future.set_exception(BrokenProcessPool("boom"))
            return future

    # Three groups, submitted one per chunk: the static pair first.
    grid = [ExperimentConfig(scheme=scheme, slack=slack, **UNTRACED)
            for slack in (10.0, 70.0)
            for scheme in ("static-2.8", "polaris")]
    serial = sweep(grid, jobs=1)
    ran = []
    real_run_group = par._run_group

    def counting_run_group(cells):
        ran.append([(c.scheme, c.slack) for c, _flags in cells])
        return real_run_group(cells)

    monkeypatch.setattr(par, "_run_group", counting_run_group)
    for lands in (1, 3):
        monkeypatch.setattr(par, "shared_pool",
                            lambda jobs: FlakyPool(lands))
        del ran[:]
        runner = SweepRunner(jobs=2, use_cache=False)
        results = runner.run(grid)
        assert [comparable(r) for r in results] \
            == [comparable(r) for r in serial]
        assert sorted(ran) == [
            [("polaris", 10.0)], [("polaris", 70.0)],
            [("static-2.8", 10.0), ("static-2.8", 70.0)]]
        assert runner.stats.simulated == 3
        assert runner.stats.executed == 4


# ----------------------------------------------------------------------
# events/sec accounting
# ----------------------------------------------------------------------
def test_events_per_sec_uses_sweep_wall_clock():
    """Parallel cells overlap in time; the throughput denominator must
    be the sweep wall clock, not the summed per-cell walls."""
    report = TimingReport("unit", jobs=4)
    # Four 1-second cells that ran concurrently inside a 1.2 s sweep.
    for i in range(4):
        report.record_cell(f"cell-{i}", cached=False, wall_seconds=1.0,
                           sim_events=1000)
    report.record_sweep(1.2)
    assert report.aggregate_events_per_sec() == pytest.approx(4000 / 1.2)
    # Without a recorded sweep (hand-fed report), fall back to the
    # serial denominator.
    fallback = TimingReport("unit", jobs=1)
    fallback.record_cell("cell", cached=False, wall_seconds=2.0,
                         sim_events=1000)
    assert fallback.aggregate_events_per_sec() == pytest.approx(500.0)


def test_runner_records_sweep_wall(tmp_path):
    report = TimingReport("unit", jobs=1)
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "c", report=report)
    runner.run(small_grid()[:1])
    assert report.sweep_wall_seconds > 0
    before = report.sweep_wall_seconds
    runner.run(small_grid()[:1])  # cached sweep still accumulates
    assert report.sweep_wall_seconds > before
