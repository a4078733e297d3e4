"""Figure reproductions: the evaluation section as one table.

The paper's evaluation (Figures 6-12) and this repo's extensions are
one template --- (benchmark, scheme, load, slack) -> average power +
failure rate --- varied along one or two axes.  :data:`FIGURES` spells
each of them out as data: a :class:`Figure` is a name, a title, the
keyed cells it runs (:class:`Grid` products of ``ExperimentConfig``
axes) and the sections it prints.  :func:`run_figure` runs any entry
into a :class:`FigureResult`, whose ``render()`` produces the same
rows/series the paper reports; the benchmark suite and the CLI print
these.  ``fig3``/``theory``/``overhead`` are not grids and keep their
own functions below.  :class:`FigureOptions`' scaled-down durations
keep the full suite tractable (the CLI's ``--test-seconds`` /
``--trace-seconds`` lengthen the measured phases); its 16 workers match
the paper's testbed and the power calibration.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field, fields, replace
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.workload import Workload
from repro.faults.plan import FaultsLike
from repro.harness.experiment import (
    ExperimentConfig, ExperimentResult, run_experiment,
)
from repro.harness.parallel import SweepRunner
from repro.harness.profiling import TimingReport, perf_clock
from repro.harness.schemes import (
    ARENA_SCHEMES, FIGURE_BASELINE_SCHEMES, VARIANT_SCHEMES,
)
from repro.metrics.latency import LatencyRecorder, pooled_exec_time_stats
from repro.metrics.report import (
    availability_record, availability_table, format_series, format_table,
    sparkline,
)
from repro.theory.instances import (
    adversarial_pair, random_agreeable_instance, random_instance,
)
from repro.theory.avr import avr_schedule
from repro.theory.model import DEFAULT_ALPHA
from repro.theory.oa import oa_schedule
from repro.theory.polaris_ideal import polaris_ideal_schedule
from repro.theory.potential import verify_theorem_4_4
from repro.theory.yds import yds_energy
from repro.fleet.config import FleetConfig
from repro.workloads.tpcc import FIGURE3_CALIBRATION
from repro.workloads.traces import (
    normalize, synthesize_diurnal_trace, synthesize_worldcup_trace,
)

#: Slack values swept in Figures 6-9 and 12.
DEFAULT_SLACKS = (10, 40, 70, 100)


@dataclass
class FigureOptions:
    """Run-size knobs shared by all figure reproductions."""

    workers: int = 16
    warmup_seconds: float = 1.0
    test_seconds: float = 4.0
    trace_seconds: int = 120
    seed: int = 42
    slacks: Tuple[int, ...] = DEFAULT_SLACKS
    #: Sweep execution: worker processes (None = --jobs / REPRO_JOBS /
    #: cpu count) and the on-disk result cache toggle.
    jobs: Optional[int] = None
    use_cache: bool = True
    #: Optional shared timing report (the CLI wires one in per figure).
    report: Optional[TimingReport] = None
    #: repro.obs: when set (CLI ``--trace DIR``), every cell exports a
    #: Perfetto trace + metric-series CSV under this directory, named
    #: by a slug of the cell's distinguishing fields.
    trace_dir: Optional[str] = None
    #: repro.faults: scenario name / plan applied to every cell (CLI
    #: ``--faults``), so any figure can be re-run under chaos.
    faults: FaultsLike = None

    def validate(self) -> None:
        """Reject a run size no cell could run (``ValueError`` naming
        the field), before any cell does."""
        # The traces are whole seconds: a float length fails in range().
        if not (type(self.trace_seconds) is int and self.trace_seconds >= 1):
            raise ValueError("trace_seconds must be an int of at least 1, "
                             f"got {self.trace_seconds!r}")
        self.base_config().validate()

    def base_config(self, **overrides) -> ExperimentConfig:
        """One cell at this run size.  ``overrides`` win (a figure may
        pin ``faults``); an unknown name raises ``TypeError``."""
        return ExperimentConfig(**{
            "workers": self.workers,
            "warmup_seconds": self.warmup_seconds,
            "test_seconds": self.test_seconds,
            "seed": self.seed,
            "faults": self.faults,
            **overrides})

    def run_cells(self, configs) -> List[ExperimentResult]:
        """Run a grid of independent cells through the sweep runner
        (parallel where possible, cached on disk, deterministic order)."""
        configs = list(configs)
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            seen: Dict[str, int] = {}
            for config in configs:
                slug = _cell_slug(config)
                n = seen.get(slug, 0)
                seen[slug] = n + 1
                if n:
                    slug = f"{slug}-{n}"
                config.trace_path = os.path.join(
                    self.trace_dir, f"{slug}.trace.json")
                config.trace_series_path = os.path.join(
                    self.trace_dir, f"{slug}.series.csv")
        runner = SweepRunner(jobs=self.jobs, use_cache=self.use_cache,
                             report=self.report)
        return runner.run(configs)


def _cell_slug(config: ExperimentConfig) -> str:
    """Filesystem-safe name for one cell's trace artifacts."""
    parts = [config.benchmark, config.scheme,
             f"load{config.load_fraction:g}", f"slack{config.slack:g}"]
    if config.routing != "rh-round-robin":
        parts.append(config.routing)
    if config.cstate_ladder != "c1":
        parts.append(config.cstate_ladder)
    if config.workload_policy != "per-type":
        parts.append(config.workload_policy)
    if config.topology != "per-core":
        parts.append(config.topology)
    if config.faults is not None:
        parts.append(
            f"faults_{getattr(config.faults, 'name', config.faults)}")
    if config.fleet is not None:
        if config.fleet.elastic:
            parts.append("fleet_elastic")
        else:
            nodes = config.fleet.shards \
                * (1 + config.fleet.static_replicas())
            parts.append(f"fleet_static{nodes}")
    return "-".join(str(p).replace("/", "_") for p in parts)


# ----------------------------------------------------------------------
# Figures as data: Grid -> Figure -> run_figure -> FigureResult
# ----------------------------------------------------------------------
#: A cell's key: one part per axis of its grid, in axis order.
Key = Tuple[object, ...]

CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def _resolve(value, options: FigureOptions):
    """Titles, fixed values and axis values may depend on the run size
    (the slack axis, a trace of ``trace_seconds``): write those as a
    function of the options."""
    return value(options) if callable(value) else value


@dataclass(frozen=True)
class Grid:
    """A product of axes over shared fixed ``ExperimentConfig`` fields.

    An axis is ``(field, values)``: each value sets that field and is
    the cell's key part.  ``(name, {part: {field: value, ...}})`` names
    the parts instead, so one step can set several fields.  The first
    axis is outermost.  A name that is not an ``ExperimentConfig``
    field is rejected here, when the table is built.
    """

    axes: Tuple[Tuple[str, object], ...]
    fixed: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = set(self.fixed)
        for name, values in self.axes:
            if isinstance(values, Mapping):
                names.update(*values.values())
            elif not callable(values):
                names.add(name)
        if not names <= CONFIG_FIELDS:
            raise ValueError("not ExperimentConfig fields: "
                             + ", ".join(sorted(names - CONFIG_FIELDS)))

    def cells(self, options: FigureOptions
              ) -> Iterator[Tuple[Key, ExperimentConfig]]:
        steps = []
        for name, values in self.axes:
            values = _resolve(values, options)
            steps.append(list(values.items())
                         if isinstance(values, Mapping)
                         else [(value, {name: value}) for value in values])
        fixed = {name: _resolve(value, options)
                 for name, value in self.fixed.items()}
        for combo in itertools.product(*steps):
            overrides = dict(fixed)
            for _part, step in combo:
                overrides.update(step)
            yield (tuple(part for part, _step in combo),
                   options.base_config(**overrides))


@dataclass(frozen=True)
class Figure:
    """One grid-shaped figure: what it runs and what it prints."""

    name: str
    title: object  # str, or FigureOptions -> str
    grids: Tuple[Grid, ...]
    #: Blocks of the printed output, each a pure function of the
    #: result; an empty block is skipped.
    sections: Tuple[Callable[["FigureResult"], str], ...]

    def cells(self, options: FigureOptions
              ) -> List[Tuple[Key, ExperimentConfig]]:
        """Every (key, config) cell, in run (= cache-key, slug) order."""
        return [cell for grid in self.grids for cell in grid.cells(options)]


@dataclass
class FigureResult:
    """Every cell of one figure, keyed by its axis values.

    The accessor rule: a key names cells by prefix.  The full key gives
    that cell's number; a shorter key gives the list of numbers of the
    cells under it, in grid order --- ``power("polaris")`` on a slack
    sweep is POLARIS's power along the slack axis.  The scheme part of
    a key is the registry name (``"static-2.8"``), not the label.
    """

    figure: Figure
    title: str
    #: key -> result, in grid order.
    cells: Dict[Key, ExperimentResult]

    @property
    def results(self) -> List[ExperimentResult]:
        return list(self.cells.values())

    def axis(self, position: int) -> List[object]:
        """Distinct key parts at ``position``, in grid order."""
        return list(dict.fromkeys(
            key[position] for key in self.cells if len(key) > position))

    def under(self, *prefix) -> List[ExperimentResult]:
        found = [cell for key, cell in self.cells.items()
                 if key[:len(prefix)] == prefix]
        if not found:
            raise KeyError(prefix)
        return found

    def _metric(self, key: Key, name: str):
        if key in self.cells:
            return getattr(self.cells[key], name)
        return [getattr(cell, name) for cell in self.under(*key)]

    def power(self, *key):
        """Average wall power (W), by the accessor rule."""
        return self._metric(key, "avg_power_watts")

    def failure(self, *key):
        """Deadline-failure rate, by the accessor rule."""
        return self._metric(key, "failure_rate")

    def render(self) -> str:
        blocks = [section(self) for section in self.figure.sections]
        return "\n\n".join(block for block in blocks if block)


def run_figure(figure: Figure, options: Optional[FigureOptions] = None
               ) -> FigureResult:
    """Run ``figure`` as one batch of independent cells (so the sweep
    runner can fan them out over worker processes) and key the results
    by the cells that produced them."""
    options = options or FigureOptions()
    keys, configs = zip(*figure.cells(options))
    if len(set(keys)) != len(keys):
        raise ValueError(f"{figure.name}: two cells share a key")
    return FigureResult(figure, _resolve(figure.title, options),
                        dict(zip(keys, options.run_cells(configs))))


# ----------------------------------------------------------------------
# Render sections
# ----------------------------------------------------------------------
def heading(result: FigureResult) -> str:
    return result.title


def _pivot(cells: Mapping[Key, ExperimentResult], title: str, column: str,
           row_headers: Sequence[str] = ("scheme",)) -> str:
    """The shared ``{power}W/{failure}`` table: the last key part is
    the column, the parts before it the row, scheme shown by label."""
    rows: Dict[Key, List[object]] = {}
    for key, cell in cells.items():
        row = rows.setdefault(key[:-1], [cell.scheme_label, *key[1:-1]])
        row.append(f"{cell.avg_power_watts:.1f}W/{cell.failure_rate:.3f}")
    columns = dict.fromkeys(key[-1] for key in cells)
    return format_table(
        [*row_headers, *(column.format(part) for part in columns)],
        rows.values(), title=title)


def pivot(title: str, column: str, row_headers=("scheme",)):
    """Section: every cell of the figure as one :func:`_pivot` table."""
    return lambda result: _pivot(result.cells, title, column, row_headers)


def slack_table(row_headers=("scheme",)):
    """Section: the figure's cells against the slack axis."""
    return pivot("avg power (W) / failure rate vs slack", "slack={}",
                 row_headers)


def degradation_actions(result: FigureResult) -> str:
    """What the scenario-armed degradation policies did, per cell."""
    rows = [[cell.scheme_label, scenario,
             " ".join(f"{k}={v}" for k, v
                      in sorted(cell.degradation_actions.items()))]
            for (_scheme, scenario), cell in result.cells.items()
            if cell.degradation_actions]
    if not rows:
        return ""
    return format_table(["scheme", "scenario", "degradation actions"],
                        rows, title="graceful-degradation activity")


def pareto_frontier(result: FigureResult, benchmark: str,
                    load: float) -> List[str]:
    """Pareto-efficient scheme labels for one (workload, load) column
    of the arena: nobody else is at least as good on both power and
    deadline misses and strictly better on one."""
    points = [(cell.scheme_label, cell.avg_power_watts, cell.failure_rate)
              for key, cell in result.cells.items()
              if key[1:] == (benchmark, load)]
    return [label for label, p, f in points if not any(
        op <= p + 1e-12 and of <= f + 1e-12
        and (op < p - 1e-12 or of < f - 1e-12)
        for other, op, of in points if other != label)]


def arena_report(result: FigureResult) -> str:
    """Arena keys are (scheme, benchmark, load) for the tournament and
    (scheme, scenario) for the fault rounds: one table per benchmark,
    the frontiers, then the fault rounds."""
    tournament = {key: cell for key, cell in result.cells.items()
                  if len(key) == 3}
    blocks = [
        _pivot({(scheme, load): cell
                for (scheme, bench, load), cell in tournament.items()
                if bench == benchmark},
               f"{benchmark}: avg power (W) / failure rate vs load",
               "load {:g}")
        for benchmark in dict.fromkeys(key[1] for key in tournament)]
    blocks.append(format_table(
        ["workload", "load", "power/miss frontier"],
        [[benchmark, f"{load:g}",
          ", ".join(pareto_frontier(result, benchmark, load))]
         for benchmark, load in dict.fromkeys(
             key[1:] for key in tournament)],
        title="Pareto frontiers (power vs deadline misses)"))
    rounds = {key: cell for key, cell in result.cells.items()
              if len(key) == 2}
    if rounds:
        blocks.append(_pivot(rounds, "fault rounds (TPC-C, medium load): "
                                     "avg power (W) / failure rate", "{}"))
    return "\n\n".join(blocks)


def coarse_dvfs_gap(result: FigureResult, scheme: str
                    ) -> Tuple[float, float]:
    """Mean (extra watts, failure-rate difference) of the per-socket
    domain against per-core, over the slack axis."""
    def gap(metric) -> float:
        fine = metric(scheme, "per-core")
        return sum(c - f for c, f in zip(metric(scheme, "per-socket"),
                                         fine)) / len(fine)
    return gap(result.power), gap(result.failure)


def coarse_dvfs_table(result: FigureResult) -> str:
    rows = []
    for scheme in result.axis(0):
        power_gap, failure_gap = coarse_dvfs_gap(result, scheme)
        rows.append([result.under(scheme)[0].scheme_label,
                     f"{power_gap:+.2f}", f"{failure_gap:+.4f}"])
    return format_table(
        ["scheme", "power gap (W)", "failure gap"], rows,
        title="cost of coarse DVFS (per-socket minus per-core, "
              "mean over slacks)")


def parking_table(result: FigureResult) -> str:
    return format_table(
        ["routing", "C-states", "power (W)", "failure rate"],
        [[*key, f"{cell.avg_power_watts:.1f}", f"{cell.failure_rate:.3f}"]
         for key, cell in result.cells.items()],
        title=result.title)


def trace_summary(result: FigureResult) -> str:
    return format_table(
        ["Baseline", "Avg. Power (Watt)", "Failure Rate"],
        [[cell.scheme_label, f"{cell.avg_power_watts:.1f}",
          f"{cell.failure_rate:.2f}"] for cell in result.results],
        title="(b) average power and failure rate")


def _power_sparklines(result: FigureResult, width: int) -> List[str]:
    return [f"  {cell.scheme_label:{width}s} power: "
            + sparkline([watts for _, watts in cell.power_timeline])
            for cell in result.results]


def trace_timelines(result: FigureResult) -> str:
    trace = result.results[0].config.load_trace
    return "\n".join(["(a) normalized timelines (5 s bins)",
                      "  load : " + sparkline(trace),
                      *_power_sparklines(result, 12)])


def tier_gap(result: FigureResult, scheme: str) -> float:
    """Gold-minus-silver failure gap for one scheme of Figure 11."""
    per_tier = result.cells[(scheme,)].per_workload_failure
    return per_tier["gold"] - per_tier["silver"]


def tier_table(result: FigureResult) -> str:
    rows = sorted(
        (cell.scheme_label, tier, cell.avg_power_watts,
         cell.per_workload_failure.get(tier, 0.0))
        for cell in result.results for tier in TIER_TARGETS_MS)
    return format_table(
        ["scheme-tier", "power (W)", "failure rate"],
        [[f"{label}-{tier}", f"{power:.1f}", f"{failure:.3f}"]
         for label, tier, power, failure in rows],
        title=result.title)


def provisioning_frontier(result: FigureResult) -> str:
    def row(cell: ExperimentResult) -> List[str]:
        acts = cell.fleet_actions
        return [cell.scheme_label, f"{cell.avg_power_watts:.1f}",
                f"{cell.failure_rate:.4f}",
                f"{max(cell.per_shard_failure.values(), default=0.0):.4f}",
                str(acts.get("stale_read_bounces", 0)),
                f"{acts.get('scale_out', 0)}/{acts.get('scale_in', 0)}"]
    return format_table(
        ["Fleet", "Avg. Power (Watt)", "Failure Rate",
         "Worst Shard Miss", "Stale Bounces", "Out/In"],
        map(row, result.results), title="(b) provisioning frontier")


def _step_bins(timeline: Sequence[Tuple[float, float]], start: float,
               end: float, bins: int) -> List[float]:
    """Sample a (time, value) step series at ``bins`` bin centres."""
    if not timeline or bins < 1 or end <= start:
        return []
    width = (end - start) / bins
    values: List[float] = []
    for i in range(bins):
        centre = start + (i + 0.5) * width
        value = timeline[0][1]
        for time_s, v in timeline:
            if time_s > centre:
                break
            value = v
        values.append(value)
    return values


def fleet_timelines(result: FigureResult) -> str:
    config = result.results[0].config
    trace = config.load_trace
    test_start = config.warmup_seconds
    out = ["(a) normalized timelines", "  load  : " + sparkline(trace),
           *_power_sparklines(result, 16)]
    for cell in result.results:
        bins = _step_bins(cell.node_timeline, test_start,
                          test_start + len(trace), max(len(trace) // 5, 8))
        if len(set(bins)) > 1:
            nodes = sparkline(bins)
        else:
            nodes = f"constant {bins[0] if bins else 0:g}"
        out.append(f"  {cell.scheme_label:16s} nodes: {nodes}")
    return "\n".join(out)


def availability_summary(result: FigureResult) -> str:
    """MTTR / lost commits / tail latency / power per chaos cell,
    labelled by the cell rather than the scheme."""
    return availability_table([{**availability_record(cell), "label": name}
                               for (name,), cell in result.cells.items()])


def failover_report(result: FigureResult) -> str:
    out = []
    healthy = result.cells.get(("healthy",))
    failover = result.cells.get(("failover",))
    if healthy is not None and failover is not None:
        healthy_w = healthy.avg_power_watts
        chaos_w = failover.avg_power_watts
        out.append(f"failover power delta vs healthy: "
                   f"{chaos_w - healthy_w:+.1f} W "
                   f"({(chaos_w / healthy_w - 1.0) * 100.0:+.2f}%)")
    for (name,), cell in result.cells.items():
        if cell.failover_timeline:
            steps = " ".join(f"{t:.2f}s:{event}(s{shard}->n{node})"
                             for t, shard, event, node
                             in cell.failover_timeline)
            out.append(f"  {name} failover timeline: {steps}")
    return "\n".join(out)


# ----------------------------------------------------------------------
# The table.  EXPERIMENTS.md has each figure's findings; the comments
# here say what a cell list alone does not.
# ----------------------------------------------------------------------
#: The slack axis of Figures 6-9/12 and the granularity figure: keyed
#: as written in ``FigureOptions.slacks``, run as floats.
SLACK_AXIS = ("slack", lambda options: {
    slack: {"slack": float(slack)} for slack in options.slacks})


def _slack_sweep(name: str, title: str, benchmark: str, load: float,
                 schemes: Sequence[str]) -> Figure:
    """The (scheme x slack) grid the paper's slack figures plot,
    scheme-major and slack-minor."""
    return Figure(name, title,
                  (Grid((("scheme", tuple(schemes)), SLACK_AXIS),
                        dict(benchmark=benchmark, load_fraction=load)),),
                  (heading, slack_table()))


def _worldcup_trace(options: FigureOptions) -> List[float]:
    return synthesize_worldcup_trace(options.trace_seconds,
                                     random.Random(options.seed))


def _diurnal_rates(options: FigureOptions) -> List[float]:
    return synthesize_diurnal_trace(options.trace_seconds,
                                    random.Random(options.seed),
                                    peak_rate_scale=1000.0)


def _diurnal_title(prefix: str) -> Callable[[FigureOptions], str]:
    return lambda options: (
        f"{prefix} (sharded TPC-C, diurnal trace, "
        f"peak {max(_diurnal_rates(options)):.0f} txn/s)")


#: Figure 11's absolute per-tier latency targets (Section 6.5).
TIER_TARGETS_MS = {"gold": 7.5, "silver": 37.5}

#: Slack used throughout the arena (the mid slack of Figures 6-8).
ARENA_SLACK = 40.0

#: Shared-domain P-state switch stall used for the coarse cells.  The
#: paper measures sub-microsecond *per-core* MSR switches; re-locking a
#: package-wide PLL goes through firmware coordination and stalls every
#: member core for tens of microseconds (Mazouz et al. measure 20-70 us
#: on Haswell-generation parts), so the coarse cells pay 50 us.
DOMAIN_SWITCH_LATENCY_S = 50e-6

#: The fleet of both fleet figures: two shards, one read replica each,
#: elastic.  Variants are ``replace``-d from it.
ELASTIC_FLEET = FleetConfig(shards=2, replicas_per_shard=1, node_workers=2,
                            elastic=True)

#: Shared by both fleet figures: sharded TPC-C under a 1000x-scaled
#: diurnal trace.  Load is expressed against the peak-provisioned
#: fleet, so all cells of a figure see bit-identical arrivals.
DIURNAL_FLEET = dict(
    benchmark="tpcc", scheme="polaris", slack=60.0,
    load_trace=lambda options: normalize(_diurnal_rates(options)),
    trace_low_fraction=0.1, trace_high_fraction=0.4)

FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    # Figures 6-9: slack sweeps at three load levels, two benchmarks
    # (TPC-E: ten per-type workloads).
    _slack_sweep("fig6", "Figure 6: TPC-C medium load",
                 "tpcc", 0.6, FIGURE_BASELINE_SCHEMES),
    _slack_sweep("fig7", "Figure 7: TPC-E medium load",
                 "tpce", 0.6, FIGURE_BASELINE_SCHEMES),
    _slack_sweep("fig8", "Figure 8: TPC-C low load",
                 "tpcc", 0.3, FIGURE_BASELINE_SCHEMES),
    # The paper's Figure 9 plots only the 2.8 GHz static baseline (2.4
    # saturates at this load), so the line-up drops static-2.4.
    _slack_sweep("fig9", "Figure 9: TPC-C high load", "tpcc", 0.9,
                 [s for s in FIGURE_BASELINE_SCHEMES if s != "static-2.4"]),

    # TPC-C driven by the World Cup-style trace: the target rate sweeps
    # 30%..90% of peak, reset each second from the normalized trace
    # (Section 6.4); slack-50 per-type latency targets sit between the
    # paper's tight and loose settings.
    Figure("fig10", "Figure 10: World Cup trace (time-varying load)",
           (Grid((("scheme", ("conservative", "ondemand", "polaris")),),
                 dict(benchmark="tpcc", slack=50.0,
                      load_trace=_worldcup_trace)),),
           (heading, trace_summary, trace_timelines)),

    # Two full-mix TPC-C workloads, each receiving half the medium-load
    # request rate; only POLARIS can treat them differently.
    Figure("fig11",
           "Figure 11: workload differentiation "
           f"(gold {TIER_TARGETS_MS['gold']:g} ms / "
           f"silver {TIER_TARGETS_MS['silver']:g} ms targets)",
           (Grid((("scheme", ("polaris", "ondemand", "conservative",
                              "static-2.8")),),
                 dict(benchmark="tpcc", load_fraction=0.6,
                      workload_policy="tiers",
                      tier_targets={tier: ms * 1e-3 for tier, ms
                                    in TIER_TARGETS_MS.items()})),),
           (tier_table,)),

    # POLARIS vs POLARIS-FIFO vs POLARIS-FIFO-NOARRIVE.
    _slack_sweep("fig12",
                 "Figure 12: POLARIS component analysis (medium load)",
                 "tpcc", 0.6, VARIANT_SCHEMES),

    # The Section 8 sketch, measured: request distribution x C-states,
    # POLARIS at low load (where parking should matter most), tight
    # slack.
    Figure("extension",
           "Extension (Section 8): routing x C-states, POLARIS, "
           "TPC-C low load, slack 10",
           (Grid((("routing",
                   ("rh-round-robin", "least-loaded", "packing")),
                  ("cstate_ladder", ("c1", "deep"))),
                 dict(benchmark="tpcc", scheme="polaris",
                      load_fraction=0.3, slack=10.0)),),
           (parking_table,)),

    # The chaos matrix: the repro.faults scenario library ("none" is
    # the healthy reference cell) against POLARIS, whose cells exercise
    # the scenario-armed degradation policies (shedding, DVFS retry,
    # watchdog migration, panic mode), and the reactive governor and
    # the paper's static baseline, which show what the same faults do
    # without a deadline-aware scheduler.
    Figure("resilience",
           "Resilience: fault scenarios x schemes (TPC-C medium load)",
           (Grid((("scheme", ("polaris", "ondemand", "static-2.8")),
                  ("faults", {name: {"faults": None if name == "none"
                                     else name}
                              for name in ("none", "burst", "brownout",
                                           "sticky-pstate", "dying-core")})),
                 dict(benchmark="tpcc", load_fraction=0.6, slack=40.0)),),
           (heading,
            pivot("avg power (W) / failure rate vs fault scenario", "{}"),
            degradation_actions)),

    # The tournament: every scheme against one workload per benchmark
    # family at three fractions of saturation, then fault rounds on
    # TPC-C at medium load, so robustness (deadline-failure rate) is
    # scored next to efficiency (average power).
    Figure("arena",
           "Scheduler arena: speed-scaling family tournament "
           f"(slack {ARENA_SLACK:g} ms)",
           (Grid((("scheme", ARENA_SCHEMES),
                  ("benchmark", ("tpcc", "tpce", "ycsb-b")),
                  ("load_fraction", (0.3, 0.6, 0.9))),
                 dict(slack=ARENA_SLACK)),
            Grid((("scheme", ARENA_SCHEMES),
                  ("faults", ("burst", "dying-core"))),
                 dict(benchmark="tpcc", load_fraction=0.6,
                      slack=ARENA_SLACK))),
           (heading, arena_report)),

    # The Figure 6 setting re-run with the testbed's cores coupled into
    # per-socket frequency domains ("per-core" is the paper's
    # assumption; "per-socket" couples the 8-core packages), for the
    # in-DBMS scheduler and the two reactive OS governors, whose
    # per-core decisions become domain votes.  Under the cpufreq
    # max-of-votes rule one urgent transaction raises all eight cores
    # of its package, so deadline-aware scaling loses much of its
    # per-core advantage; the gap table quantifies that per scheme.
    Figure("granularity",
           "Frequency-domain granularity: the cost of coarse DVFS "
           "(TPC-C medium load)",
           (Grid((("scheme", ("polaris", "ondemand", "conservative")),
                  ("topology", {
                      "per-core": dict(topology="per-core",
                                       topology_switch_latency=0.0),
                      "per-socket": dict(
                          topology="per-socket",
                          topology_switch_latency=DOMAIN_SWITCH_LATENCY_S),
                  }),
                  SLACK_AXIS),
                 dict(benchmark="tpcc", load_fraction=0.6)),),
           (heading, slack_table(("scheme", "domains")), coarse_dvfs_table)),

    # Elastic autoscaling vs every static provisioning level, peak
    # first, keyed by node count.  With identical arrivals the frontier
    # isolates what node-level scaling buys.  Pins ``faults=None``:
    # this is the healthy reference the availability figure's chaos
    # cells are held against.
    Figure("fleet",
           _diurnal_title("Fleet extension: elastic vs static provisioning"),
           (Grid((("fleet", {
                      "elastic": dict(fleet=ELASTIC_FLEET),
                      **{f"static-{ELASTIC_FLEET.shards * (1 + active)}":
                         dict(fleet=replace(ELASTIC_FLEET, elastic=False,
                                            static_active_replicas=active))
                         for active in range(
                             ELASTIC_FLEET.replicas_per_shard, -1, -1)},
                  }),),
                 dict(DIURNAL_FLEET, faults=None)),),
           (heading, provisioning_frontier, fleet_timelines)),

    # The frontier's fleet and trace with ``shard-crash`` fail-stopping
    # every shard's primary mid-run: failover against the no-failover
    # baseline (which sheds every write to a crashed shard for the rest
    # of the run), and a hot-spare variant that keeps one replica per
    # shard active so a promotion candidate is always warm --- its
    # power premium is the figure's cost-of-availability axis.
    Figure("availability",
           _diurnal_title("Fleet availability: crash-per-shard chaos"),
           (Grid((("cell", {
                      "healthy": dict(fleet=ELASTIC_FLEET, faults=None),
                      "failover": dict(fleet=ELASTIC_FLEET,
                                       faults="shard-crash"),
                      "no-failover": dict(
                          fleet=replace(ELASTIC_FLEET,
                                        failover_enabled=False),
                          faults="shard-crash"),
                      "hot-spare": dict(
                          fleet=replace(ELASTIC_FLEET,
                                        min_active_replicas=1),
                          faults="shard-crash"),
                  }),),
                 DIURNAL_FLEET),),
           (heading, availability_summary, failover_report)),
)}


# ----------------------------------------------------------------------
# Figure 3: TPC-C execution-time table
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    """Measured mean/P95 execution times at max and min frequency."""

    #: type -> (mean_28, p95_28, mean_12, p95_12) in microseconds.
    rows: Dict[str, Tuple[float, float, float, float]]

    def render(self) -> str:
        header = ["Request Type", "Mean@2.8", "P95@2.8", "Mean@1.2",
                  "P95@1.2", "paper Mean@2.8", "paper P95@2.8"]
        table_rows = []
        for name, row in self.rows.items():
            paper = FIGURE3_CALIBRATION.get(name)
            paper_cells = [f"{paper[1] * 1e6:.0f}", f"{paper[2] * 1e6:.0f}"] \
                if paper else ["-", "-"]
            table_rows.append([name] + [f"{v:.0f}" for v in row]
                              + paper_cells)
        return format_table(
            header, table_rows,
            title="Figure 3: TPC-C execution times (us) at max/min frequency")


def fig3_exec_times(options: Optional[FigureOptions] = None) -> Fig3Result:
    """Regenerate the Figure 3 table by measuring executed transactions.

    Two ordinary cells at light load, the server pinned at 2.8 and at
    1.2 GHz; each type's measured execution-time distribution is read
    off the run's latency recorder (the figure needs raw execution
    times, which ``ExperimentResult`` summarizes away).
    """
    options = options or FigureOptions()
    columns: List[Dict[str, Tuple[float, float, int]]] = []
    for freq in (2.8, 1.2):
        recorder = LatencyRecorder()
        run_experiment(
            options.base_config(benchmark="tpcc", load_fraction=0.3,
                                scheme=f"static-{freq:.1f}"),
            recorder=recorder)
        times = recorder.exec_times_by_pair()
        column = {name: pooled_exec_time_stats(times, freq, name)
                  for name in FIGURE3_CALIBRATION}
        column["Combined"] = pooled_exec_time_stats(times, freq)
        columns.append(column)
    return Fig3Result({
        name: tuple(seconds * 1e6 for column in columns
                    for seconds in column[name][:2])
        for name in columns[0]})


# ----------------------------------------------------------------------
# Section 4: competitive-ratio verification
# ----------------------------------------------------------------------
@dataclass
class TheoryResult:
    """Empirical checks of the Section 4 competitive claims."""

    alpha: float
    agreeable_polaris_vs_oa: List[float]
    oa_vs_yds: List[float]
    avr_vs_yds: List[float]
    polaris_vs_yds_arbitrary: List[Tuple[float, float]]  # (ratio, bound)
    adversarial: Tuple[float, float, float]  # ratio, c^alpha, (c*alpha)^alpha
    #: Appendix C numerical checks: (instances checked, all claims held,
    #: worst event jump, worst drift violation).
    appendix_c: Tuple[int, bool, float, float] = (0, True, 0.0, 0.0)

    def render(self) -> str:
        out = [f"Section 4: competitive analysis (alpha={self.alpha:g})", ""]
        out.append(format_series(
            "Thm 4.3  POLARIS/OA on agreeable (must be 1.0)",
            range(1, len(self.agreeable_polaris_vs_oa) + 1),
            self.agreeable_polaris_vs_oa, "{:.6f}"))
        out.append(format_series(
            f"         OA/YDS (bound alpha^alpha = "
            f"{self.alpha ** self.alpha:.1f})",
            range(1, len(self.oa_vs_yds) + 1), self.oa_vs_yds))
        avr_bound = 2 ** (self.alpha - 1) * self.alpha ** self.alpha
        out.append(format_series(
            f"         AVR/YDS (bound 2^(a-1)*a^a = {avr_bound:.1f})",
            range(1, len(self.avr_vs_yds) + 1), self.avr_vs_yds))
        ratios = [r for r, _ in self.polaris_vs_yds_arbitrary]
        out.append(format_series(
            "Cor 4.6  POLARIS/YDS on arbitrary (each below its "
            "(c*alpha)^alpha bound)",
            range(1, len(ratios) + 1), ratios))
        ratio, c_alpha, bound = self.adversarial
        out.append(
            f"Sec 4.6  adversarial pair: POLARIS/YDS = {ratio:.3g}, "
            f"c^alpha = {c_alpha:.3g}, bound = {bound:.3g}")
        count, held, jump, drift = self.appendix_c
        out.append(
            f"App. C   potential-function claims on {count} instances: "
            f"{'ALL HOLD' if held else 'VIOLATED'} "
            f"(worst event jump {jump:.2g}, worst drift violation "
            f"{drift:.2g})")
        return "\n".join(out)


def theory_competitive(trials: int = 5, jobs: int = 10) -> TheoryResult:
    """Empirically verify Theorem 4.3, the OA bound, and Corollary 4.6."""
    alpha = DEFAULT_ALPHA
    rng = random.Random(11)
    agreeable_ratios: List[float] = []
    oa_ratios: List[float] = []
    avr_ratios: List[float] = []
    arbitrary: List[Tuple[float, float]] = []
    for _ in range(trials):
        inst = random_agreeable_instance(jobs, rng)
        p_energy = polaris_ideal_schedule(inst).energy(alpha)
        o_energy = oa_schedule(inst).energy(alpha)
        agreeable_ratios.append(p_energy / o_energy)
    for _ in range(trials):
        inst = random_instance(jobs, rng)
        y = yds_energy(inst, alpha)
        oa_ratios.append(oa_schedule(inst).energy(alpha) / y)
        avr_ratios.append(avr_schedule(inst).energy(alpha) / y)
        ratio = polaris_ideal_schedule(inst).energy(alpha) / y
        bound = (inst.c_factor() * alpha) ** alpha
        arbitrary.append((ratio, bound))
    pair = adversarial_pair()
    pair_ratio = polaris_ideal_schedule(pair).energy(alpha) \
        / yds_energy(pair, alpha)
    c_alpha = pair.c_factor() ** alpha
    bound = (pair.c_factor() * alpha) ** alpha

    # Appendix C: potential-function claims along real trajectories.
    checked = 0
    all_hold = True
    worst_jump = worst_drift = 0.0
    for _ in range(max(2, trials // 2)):
        inst = random_instance(min(jobs, 7), rng)
        check = verify_theorem_4_4(inst, alpha=alpha)
        checked += 1
        all_hold = all_hold and check.all_claims_hold
        worst_jump = max(worst_jump, check.claim2_max_event_jump)
        worst_drift = max(worst_drift, check.claim3_max_violation)

    return TheoryResult(alpha, agreeable_ratios, oa_ratios, avr_ratios,
                        arbitrary, (pair_ratio, c_alpha, bound),
                        (checked, all_hold, worst_jump, worst_drift))


# ----------------------------------------------------------------------
# Section 5: SetProcessorFreq overhead vs queue length
# ----------------------------------------------------------------------
@dataclass
class OverheadResult:
    """Wall-clock cost of one SetProcessorFreq invocation by queue depth."""

    #: queue length -> microseconds per invocation, every request
    #: feasible at the lowest frequency (one pass, no escalation)
    micros: Dict[int, float]
    #: the same, for a queue that climbs one level at a time to the
    #: highest frequency --- the high-load regime the paper's ~10 us
    #: figure is quoted for --- *cold*: a fresh scheduler's first call
    escalating: Dict[int, float]
    #: that queue's later calls, which only confirm the last answer
    confirmed: Dict[int, float]

    def render(self) -> str:
        return format_table(
            ["queue length", "us / invocation", "escalating to f_max (cold)",
             "confirmed at f_max"],
            [[n, f"{us:.1f}", f"{self.escalating[n]:.1f}",
              f"{self.confirmed[n]:.1f}"]
             for n, us in sorted(self.micros.items())],
            title="Section 5: SetProcessorFreq overhead (this host)")


def polaris_overhead(queue_lengths: Sequence[int] = (0, 1, 4, 16, 64, 256),
                     repeats: int = 200) -> OverheadResult:
    """Measure select_frequency wall time against queue depth.

    The paper measures ~10 us at high load on its testbed; absolute
    numbers here depend on the host, but the linear scaling in queue
    length is the claim being checked.  Three series bracket the walk's
    cost: a queue feasible at the lowest frequency (one add per item);
    one that must escalate through every level, timed on the first call
    of ``repeats`` fresh schedulers (each escalation below the top
    replays the walked prefix; the walk stops where f_max is reached);
    and that queue's calls 2..N on one scheduler, which start under
    the previous answer and confirm it.
    """
    rng = random.Random(3)
    frequencies = (1.2, 1.6, 2.0, 2.4, 2.8)
    estimator = ExecutionTimeEstimator()
    at_fmax_s = 1e-5
    workload = Workload("w", latency_target=100.0)
    for freq in frequencies:
        estimator.prime("w", freq, at_fmax_s * 2.8 / freq, count=10)
    now_s = 0.5
    running = Request(workload, "t", 0.0, 0.001)

    def built(length: int, deadline_s: Optional[float]) -> PolarisScheduler:
        scheduler = PolarisScheduler(frequencies, estimator)
        for _ in range(length):
            scheduler.enqueue(Request(workload, "t", rng.random(), 0.001,
                                      deadline=deadline_s))
        return scheduler

    def micros_per_call(scheduler: PolarisScheduler, calls: int) -> float:
        start = perf_clock()
        for _ in range(calls):
            scheduler.select_frequency(now_s, running, 0.0001)
        return (perf_clock() - start) / calls * 1e6

    micros: Dict[int, float] = {}
    escalating: Dict[int, float] = {}
    confirmed: Dict[int, float] = {}
    for length in queue_lengths:
        # Long targets and small estimates keep every queue feasible at
        # the lowest frequency, so the full scan runs (no max-frequency
        # short-circuit).
        micros[length] = micros_per_call(built(length, None), repeats)
        # One shared deadline that the whole queue just meets at f_max:
        # item i needs mu(f) <= budget / (i + 1), so the requirement
        # tightens along the walk and crosses each level in turn (a
        # staircase at ~43/57/71/86 % of the queue for this ladder).
        deadline_s = now_s + length * at_fmax_s
        escalating[length] = sum(
            micros_per_call(built(length, deadline_s), 1)
            for _ in range(repeats)) / repeats
        warm = built(length, deadline_s)
        warm.select_frequency(now_s, running, 0.0001)
        confirmed[length] = micros_per_call(warm, repeats)
    return OverheadResult(micros, escalating, confirmed)
