"""Parallel sweep execution with a content-addressed on-disk cache.

Every figure reproduction is a grid of fully independent,
seed-deterministic :class:`ExperimentConfig` cells.  :class:`SweepRunner`
exploits both properties:

* **Parallelism** --- cache misses fan out over a *persistent*
  ``concurrent.futures.ProcessPoolExecutor`` (module-level, reused
  across sweeps, warmed by an initializer that pre-imports the
  experiment stack and hashes the source tree).  Each cell is an
  isolated simulation with its own RNG streams, so results are
  independent of worker assignment, and the runner returns them in
  submission order --- parallel output is byte-identical to serial.
  Each dynamics group (below) is one pool task: its cells cross the
  process boundary as ``(config, flags)`` pairs, the
  :class:`RunFlags` being the ones the parent resolved for them.
* **Shared dynamics** --- cells whose configs have the same
  :func:`~repro.harness.experiment.dynamics_key` (a governor scheme
  swept over slack: nothing reads a deadline until a completion is
  scored) are one simulation.  The runner's unit of work is that
  *group*: its first member is simulated, the others are
  :func:`~repro.harness.experiment.rescored` from the same run, and
  every member is still cached and returned as its own cell.
* **Caching** --- each cell's result is stored on disk under a key that
  hashes the full config dataclass, the cell's run flags **and** a
  digest of the :mod:`repro` package's source code.  Re-running a
  figure only simulates cells whose config changed; editing any source
  file under ``repro/`` invalidates everything (coarse, but sound --- a
  stale figure is worse than a re-run).

Worker count resolves ``jobs`` argument > ``REPRO_JOBS`` env >
``os.cpu_count()``.  ``jobs=1`` runs serially in-process (no executor),
which is also the fallback wherever process pools are unavailable.

Cache layout (see README):

.. code-block:: text

    .repro-cache/
      <2-char prefix>/<sha256>.pkl    # one pickled ExperimentResult

``SweepRunner(use_cache=False)`` bypasses reads and writes;
:meth:`SweepCache.clear` (CLI: ``--clear-cache``) wipes the tree.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
from dataclasses import asdict
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

import repro
from repro.harness.experiment import (
    ExperimentConfig, ExperimentResult, RunFlags, dynamics_key, rescored,
    run_experiment,
)
from repro.harness.profiling import TimingReport, perf_clock
from repro.metrics.latency import LatencyRecorder

if TYPE_CHECKING:  # the pool's stack loads only when a sweep fans out
    from concurrent.futures import ProcessPoolExecutor

JOBS_ENV = "REPRO_JOBS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every cache entry without touching source files
#: (e.g. when the pickle layout of ExperimentResult changes).
CACHE_SCHEMA_VERSION = 2

_code_salt_memo: Optional[str] = None


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > cpu count."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}") from None
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def code_version_salt() -> str:
    """Digest of every ``.py`` file in the :mod:`repro` package.

    Any source edit changes the salt, so cached results can never
    outlive the code that produced them.  Memoized per process (~150
    small files, a few milliseconds once).
    """
    global _code_salt_memo
    if _code_salt_memo is None:
        digest = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt_memo = digest.hexdigest()
    return _code_salt_memo


def config_key(config: ExperimentConfig, salt: Optional[str] = None,
               flags: Optional[RunFlags] = None) -> str:
    """Content address of one cell: config fields + the run flags it
    resolves to (or was shipped with) + code version."""
    flags = flags or RunFlags.resolve(config)
    payload = {
        "config": asdict(config),
        "salt": salt if salt is not None else code_version_salt(),
        "schema": CACHE_SCHEMA_VERSION,
        # Sanitized runs are byte-identical by contract, but contracts
        # are what simsan exists to doubt: keep their cache entries
        # disjoint so a sanitizer experiment can never feed a figure.
        "simsan": flags.sanitize,
        # Traced runs carry extra diagnostics (trace_events) in their
        # results; same disjointness argument as simsan.
        "trace": flags.trace,
        # The plan in force: asdict above already covers an explicit
        # config.faults, but an env-injected plan would otherwise alias
        # the healthy run's cache entry.
        "faults": flags.plan.fingerprint() if flags.plan else None,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class SweepCache:
    """Pickle-per-key result store under ``root`` (``.repro-cache/``)."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root if root is not None
                         else os.environ.get(CACHE_DIR_ENV,
                                             DEFAULT_CACHE_DIR))

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[ExperimentResult]:
        """The cached result, or ``None`` on miss or unreadable entry."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except Exception:
            # A torn/corrupt/stale entry raises whatever the pickle
            # opcodes stumble on (UnpicklingError, ValueError, EOFError,
            # ImportError, ...); any unreadable entry is simply a miss.
            return None
        return result if isinstance(result, ExperimentResult) else None

    def put(self, key: str, result: ExperimentResult) -> None:
        """Store atomically (write temp, rename) so readers never see a
        torn entry even with concurrent sweeps on one machine."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)

    def clear(self) -> int:
        """Delete everything under the root, including the temp file of
        a ``put`` interrupted before its rename; returns how many
        entries were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        # Reverse order visits a directory's files before the directory.
        for path in sorted(self.root.rglob("*"), reverse=True):
            if not path.is_dir():
                if path.suffix == ".pkl":
                    removed += 1
                path.unlink(missing_ok=True)
                continue
            try:
                path.rmdir()
            except OSError:
                pass  # a concurrent sweep wrote into it meanwhile
        return removed


#: A cell as the runner handles it: the config and the flags resolved
#: for it in the parent process.
Cell = Tuple[ExperimentConfig, RunFlags]


def _run_group(cells: Sequence[Cell]) -> List[ExperimentResult]:
    """One simulation for cells that share a dynamics key: run the
    first, score the others from its recorder.  The simulation's wall
    is split evenly over the group, so cell walls still sum to the
    time spent."""
    recorder = LatencyRecorder()
    config, flags = cells[0]
    first = run_experiment(config, recorder=recorder, flags=flags)
    first.wall_seconds /= len(cells)
    return [first] + [rescored(first, recorder, config, flags)
                      for config, flags in cells[1:]]


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: Optional[int] = None


def _warm_worker() -> None:
    """Pool initializer, run once per worker process: import the full
    experiment stack and hash the source tree, so the first cell a
    worker executes pays neither the import cascade nor the salt."""
    import repro.harness.experiment  # noqa: F401
    code_version_salt()


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent sweep pool, (re)built on demand.

    Worker processes survive across :meth:`SweepRunner.run` calls, so
    every sweep after the first (figure after figure in one CLI
    invocation, back-to-back grids in tests) skips process spawn,
    interpreter startup, and the :func:`_warm_worker` warmup.  The pool
    is keyed on the worker count alone: a worker's environment is never
    consulted, because every cell arrives with the :class:`RunFlags`
    the parent resolved for it.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        shutdown_shared_pool()
    if _pool is None:
        from concurrent.futures import ProcessPoolExecutor
        _pool = ProcessPoolExecutor(max_workers=workers,
                                    initializer=_warm_worker)
        _pool_workers = workers
    return _pool


def shutdown_shared_pool() -> None:
    """Tear down the persistent pool (resize, breakage, interpreter
    exit).  Safe to call when no pool exists."""
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_shared_pool)


def _cacheable(config: ExperimentConfig) -> bool:
    """Cells that asked for trace artifacts always run: a cache hit
    would return the metrics without ever writing the requested files.
    (Env-level ``REPRO_TRACE=1`` without export paths still caches ---
    under its own salt --- since no artifact was requested.)"""
    return config.trace_path is None and config.trace_series_path is None


def _cell_label(config: ExperimentConfig) -> str:
    return (f"{config.benchmark}/{config.scheme}"
            f"/load={config.load_fraction:g}/slack={config.slack:g}")


class SweepRunner:
    """Runs independent experiment cells, in parallel, through the cache.

    Results always come back in the order the configs were given ---
    callers observe serial semantics regardless of ``jobs``.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 use_cache: bool = True,
                 report: Optional[TimingReport] = None):
        self.jobs = resolve_jobs(jobs)
        self.cache = SweepCache(cache_dir)
        self.use_cache = use_cache
        #: Every cell and sweep wall of this runner's ``run()`` calls:
        #: the caller's report, or one of the runner's own.
        self.report = report if report is not None \
            else TimingReport("sweep", jobs=self.jobs)

    def run(self, configs: Sequence[ExperimentConfig]
            ) -> List[ExperimentResult]:
        """Execute (or recall) every cell; deterministic output order."""
        start = perf_clock()
        configs = list(configs)
        # A bad cell fails the sweep before any cell is keyed or run.
        for config in configs:
            config.validate()
        results: List[Optional[ExperimentResult]] = [None] * len(configs)
        salt = code_version_salt() if self.use_cache else None
        keys: List[Optional[str]] = [None] * len(configs)
        # Resolved here, once per cell: the same value is hashed into
        # the cache and dynamics keys and shipped to whichever process
        # runs the cell.
        cells: List[Cell] = [(config, RunFlags.resolve(config))
                             for config in configs]

        misses: List[int] = []
        for i, (config, flags) in enumerate(cells):
            if self.use_cache and _cacheable(config):
                keys[i] = config_key(config, salt, flags)
                cached = self.cache.get(keys[i])
                if cached is not None:
                    results[i] = cached
                    self.report.record_cell(
                        _cell_label(config), cached=True, wall_seconds=0.0,
                        sim_events=cached.sim_events)
                    continue
            misses.append(i)

        # Group the misses by dynamics key, in first-seen order: the
        # group is the unit of work on every path below.
        grouped: Dict[str, List[int]] = {}
        for i in misses:
            grouped.setdefault(dynamics_key(*cells[i]), []).append(i)
        groups = list(grouped.values())

        def finish(group: Sequence[int],
                   group_results: Sequence[ExperimentResult]) -> None:
            # Cache each cell the moment it lands, so an interrupted
            # sweep resumes from the cells it already finished.
            for i, result in zip(group, group_results):
                results[i] = result
                if self.use_cache and keys[i] is not None:
                    self.cache.put(keys[i], result)
                self.report.record_cell(
                    _cell_label(configs[i]), cached=False,
                    wall_seconds=result.wall_seconds,
                    sim_events=result.sim_events, shared=i != group[0])

        if self.jobs > 1 and len(groups) > 1:
            groups = self._run_parallel(cells, groups, finish)
        for group in groups:
            finish(group, _run_group([cells[i] for i in group]))

        # The report's throughput denominator must be the sweep wall
        # clock: under parallel execution the per-cell walls overlap,
        # and summing them undercounts events/sec by roughly the worker
        # count.
        self.report.record_sweep(perf_clock() - start)
        return [r for r in results if r is not None]

    def _run_parallel(self, cells: Sequence[Cell],
                      groups: Sequence[Sequence[int]],
                      finish: Callable[[Sequence[int],
                                        Sequence[ExperimentResult]], None]
                      ) -> List[Sequence[int]]:
        """Run ``groups`` on the pool; returns the groups that did not
        land (none, unless the pool broke) for the caller to run
        in-process."""
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool
        unfinished = {group[0]: group for group in groups}
        broken = False
        try:
            # Sized by self.jobs (not this sweep's miss count) so the
            # persistent pool is reused across sweeps of any size;
            # worker processes are spawned on demand, so small sweeps
            # never pay for idle slots.
            pool = shared_pool(self.jobs)
            future_group = {
                pool.submit(_run_group, [cells[i] for i in group]): group
                for group in groups}
            pending = set(future_group)
            while pending and not broken:
                done, pending = wait(pending,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    # Harvest every completed group in this batch even
                    # if a sibling future carries the pool's death ---
                    # groups that already landed must not re-run.
                    try:
                        group_results = future.result()
                    except (BrokenProcessPool, OSError,
                            PermissionError):
                        broken = True
                        continue
                    group = future_group[future]
                    finish(group, group_results)
                    del unfinished[group[0]]
        except (BrokenProcessPool, OSError, PermissionError):
            # Pool construction or submission failed outright (no
            # process spawning in sandboxes/some CI runners, or the
            # executor was already poisoned).
            broken = True
        if broken:
            # A dead worker (OOM-kill, signal) poisons the whole
            # executor --- discard it so the next sweep gets a fresh
            # pool, and degrade to serial for exactly the groups that
            # have not already landed rather than fail the sweep.
            shutdown_shared_pool()
        return list(unfinished.values())


__all__ = [
    "CACHE_DIR_ENV", "DEFAULT_CACHE_DIR", "JOBS_ENV", "SweepCache",
    "SweepRunner", "code_version_salt", "config_key",
    "resolve_jobs", "shared_pool", "shutdown_shared_pool",
]
