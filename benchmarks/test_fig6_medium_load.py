"""Figure 6: TPC-C medium load --- the paper's headline comparison.

Shape claims checked (Section 6.2):

* running flat out (2.8 GHz) costs ~170 W; a static 2.4 GHz saves
  ~30 W but misses many more deadlines when slack is tight;
* Conservative behaves like the 2.8 GHz static governor ("rarely
  lowers frequency below 2.8 GHz");
* OnDemand saves power at the cost of more missed deadlines;
* POLARIS saves 30+ W *and* misses no more deadlines than 2.8 GHz at
  tight slack (roughly half of OnDemand's misses), with savings growing
  past 40 W as slack loosens.
"""

import dataclasses
import os

import pytest

from repro.harness import figures
from repro.harness.profiling import TimingReport


def test_fig6_medium_load(figure_options):
    result = figures.run_figure(figures.FIGURES["fig6"], figure_options)
    print(result.render())

    polaris_p = result.power("polaris")
    static28_p = result.power("static-2.8")
    static24_p = result.power("static-2.4")
    conservative_p = result.power("conservative")
    ondemand_p = result.power("ondemand")

    # Wall-power levels (paper: ~170 W at 2.8 GHz, ~30 W step to 2.4).
    assert all(160 < p < 180 for p in static28_p)
    assert all(25 < a - b < 40 for a, b in zip(static28_p, static24_p))

    # Conservative ~ 2.8 GHz static at medium load.
    assert all(abs(a - b) < 5 for a, b in zip(conservative_p, static28_p))

    # POLARIS saves ~20 W at tight slack (paper: 30+; see EXPERIMENTS.md
    # for the deviation note) and >30 W at loose slack.
    assert static28_p[0] - polaris_p[0] > 18
    assert static28_p[-1] - polaris_p[-1] > 30

    # OnDemand saves power but sits above POLARIS.
    assert all(s - o > 5 for s, o in zip(static28_p, ondemand_p))
    assert all(o > p for o, p in zip(ondemand_p, polaris_p))

    # Failure shape at tight slack (slack=10).
    tight = {label: result.failure(label)[0] for label in result.axis(0)}
    assert tight["polaris"] <= tight["static-2.8"] + 0.01
    assert tight["polaris"] < 0.65 * tight["ondemand"]
    assert tight["static-2.4"] > 1.5 * tight["static-2.8"]

    # With loose slack everyone converges near zero, POLARIS included.
    loose = {label: result.failure(label)[-1] for label in result.axis(0)}
    assert loose["polaris"] < 0.01
    assert loose["static-2.8"] < 0.02


def test_fig6_shares_simulations_and_parallel_beats_serial(figure_options):
    """Cold-cache fig6 twice.  20 cells run as 8 simulations (a
    baseline's slack axis is one run, scored four times); jobs=4 is
    field-for-field identical to serial and strictly faster (skipped on
    a single-CPU runner).  Engine speed itself is the ledger's
    ``bench.wall_norm``."""
    def sweep(jobs):
        report = TimingReport("fig6-perf-guard", jobs=jobs)
        options = dataclasses.replace(figure_options, jobs=jobs,
                                      use_cache=False, report=report)
        result = figures.run_figure(figures.FIGURES["fig6"], options)
        return report, [dataclasses.replace(cell, wall_seconds=0.0)
                        for cell in result.results]

    serial, serial_cells = sweep(1)
    assert (len(serial.cells), serial.simulations) == (20, 8)
    if (os.cpu_count() or 1) < 2:
        pytest.skip("single-CPU runner: jobs=4 comparison skipped")
    pooled, pooled_cells = sweep(4)
    assert pooled_cells == serial_cells
    assert pooled.sweep_wall_seconds < serial.sweep_wall_seconds
