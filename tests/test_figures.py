"""Figure reproductions at tiny scale: every command's output is pinned.

The full-size shape assertions live in benchmarks/; here every entry of
the figure table is run at ``TINY`` and its ``render()`` compared to a
golden captured from the commit before figures became data.
"""

import pathlib
import re
from dataclasses import replace

import pytest

from repro.harness import figures
from repro.harness.figures import FIGURES, Figure, Grid

TINY = figures.FigureOptions(workers=2, warmup_seconds=0.3,
                             test_seconds=0.8, trace_seconds=10,
                             seed=5, slacks=(10, 70))

RENDERS = pathlib.Path(__file__).parent / "data" / "figure_renders"

#: The full arena is 77 cells; its tier-1 pin runs two schemes on one
#: workload at two loads plus one fault round (6 cells).
SMALL_ARENA = replace(FIGURES["arena"], grids=(
    Grid((("scheme", ("polaris", "ondemand")), ("benchmark", ("tpcc",)),
          ("load_fraction", (0.3, 0.6))), dict(slack=figures.ARENA_SLACK)),
    Grid((("scheme", ("polaris", "ondemand")), ("faults", ("burst",))),
         dict(benchmark="tpcc", load_fraction=0.6,
              slack=figures.ARENA_SLACK))))

TWO_SCHEME_SWEEP = Figure(
    "sweep", "test sweep",
    (Grid((("scheme", ("polaris", "static-2.8")), figures.SLACK_AXIS),
          dict(benchmark="tpcc", load_fraction=0.6)),),
    (figures.heading, figures.slack_table()))


@pytest.mark.parametrize(
    "figure", [*(f for f in FIGURES.values() if f.name != "arena"),
               SMALL_ARENA], ids=lambda figure: figure.name)
def test_render_pinned(figure):
    result = figures.run_figure(figure, TINY)
    for cell in result.results:
        assert cell.avg_power_watts > 0
        assert 0 <= cell.failure_rate <= 1
    golden = (RENDERS / f"{figure.name}.txt").read_text()
    assert result.render() + "\n" == golden


def test_slack_sweep_structure():
    """The accessor rule: full key -> number, prefix -> list in grid
    order; schemes are keyed by registry name and shown by label."""
    result = figures.run_figure(TWO_SCHEME_SWEEP, TINY)
    assert list(result.cells) == [("polaris", 10), ("polaris", 70),
                                  ("static-2.8", 10), ("static-2.8", 70)]
    assert result.axis(0) == ["polaris", "static-2.8"]
    assert result.axis(1) == [10, 70]
    assert result.power("polaris") == [result.power("polaris", 10),
                                       result.power("polaris", 70)]
    assert result.failure() == [r.failure_rate for r in result.results]
    assert isinstance(result.failure("static-2.8", 70), float)
    with pytest.raises(KeyError):
        result.power("POLARIS")
    text = result.render()
    assert text.startswith("test sweep\n\n")
    assert "slack=10" in text and "2.8 GHz" in text


def test_unknown_config_name_is_rejected():
    """A typo'd override used to run (and cache as) the default cell."""
    with pytest.raises(TypeError):
        TINY.base_config(cstate_laddr="deep")
    assert TINY.base_config(cstate_ladder="deep").cstate_ladder == "deep"
    with pytest.raises(ValueError, match="cstate_laddr"):
        Grid((("scheme", ("polaris",)),), dict(cstate_laddr="deep"))
    with pytest.raises(ValueError, match="schem"):
        Grid((("schem", ("polaris",)),))
    with pytest.raises(ValueError, match="topolgy"):
        Grid((("topology", {"coarse": {"topolgy": "per-socket"}}),))


def test_cell_slugs():
    slugs = {name: [figures._cell_slug(config)
                    for _key, config in FIGURES[name].cells(TINY)]
             for name in ("fig6", "fleet", "availability", "resilience")}
    assert slugs["fig6"][0] == "tpcc-polaris-load0.6-slack10"
    assert "tpcc-static-2.8-load0.6-slack70" in slugs["fig6"]
    assert slugs["fleet"] == [
        "tpcc-polaris-load0.6-slack60-fleet_elastic",
        "tpcc-polaris-load0.6-slack60-fleet_static4",
        "tpcc-polaris-load0.6-slack60-fleet_static2"]
    assert slugs["availability"][1] == \
        "tpcc-polaris-load0.6-slack60-faults_shard-crash-fleet_elastic"
    assert slugs["resilience"][:2] == [
        "tpcc-polaris-load0.6-slack40",
        "tpcc-polaris-load0.6-slack40-faults_burst"]


def test_fig3_structure():
    result = figures.fig3_exec_times(TINY)
    assert set(result.rows) == {"NewOrder", "Payment", "OrderStatus",
                                "StockLevel", "Combined"}
    for name, (m28, p28, m12, p12) in result.rows.items():
        assert 0 < m28 <= p28, name
        # The 1.2 GHz column is the 2.8 GHz one scaled by 1/f, as in the
        # paper's table (2.32-2.44x between its columns).
        assert m12 / m28 == pytest.approx(2.8 / 1.2, rel=0.10), name
    assert result.render() + "\n" == (RENDERS / "fig3.txt").read_text()


def test_theory_competitive_structure():
    result = figures.theory_competitive(trials=2, jobs=6)
    assert len(result.agreeable_polaris_vs_oa) == 2
    assert len(result.oa_vs_yds) == 2
    for ratio in result.agreeable_polaris_vs_oa:
        assert ratio == pytest.approx(1.0, rel=1e-6)
    assert "Thm 4.3" in result.render()


def test_overhead_structure():
    result = figures.polaris_overhead(queue_lengths=(0, 8), repeats=20)
    series = (result.micros, result.escalating, result.confirmed)
    for micros in series:
        assert set(micros) == {0, 8}
        assert all(us > 0 for us in micros.values())
    for column in ("queue length", "escalating", "(cold)", "confirmed"):
        assert column in result.render()


@pytest.mark.parametrize("env, argv, message", [
    ({"REPRO_JOBS": "abc"}, [], "REPRO_JOBS"),
    ({"REPRO_JOBS": "0"}, [], "jobs"),
    ({"REPRO_FAULTS": "no-such-scenario"}, [], "no-such-scenario"),
    ({}, ["--faults", "no-such-scenario"], "no-such-scenario"),
    ({}, ["--workers", "0"], "workers"),
    ({}, ["--test-seconds", "-1"], "test_seconds"),
    ({}, ["--trace-seconds", "0"], "trace_seconds"),
])
def test_bad_run_size_is_a_usage_error(monkeypatch, capsys, env, argv,
                                       message):
    """Exit 2 from the argument boundary, before any cell runs."""
    from repro.harness.cli import main
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(figures.FigureOptions, "run_cells",
                        lambda self, configs: pytest.fail("a cell ran"))
    with pytest.raises(SystemExit) as exit_info:
        main(["fig6", "--no-cache", *argv])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    # A float trace length used to pass and die in range() inside the
    # trace synthesizers; a bool passed as 1.
    ("trace_seconds", 1.5),
    ("trace_seconds", True),
    ("seed", "7"),
    ("seed", None),
    ("seed", 1.5),
    ("seed", True),
])
def test_bad_figure_options_are_rejected_naming_the_field(field, value):
    options = figures.FigureOptions(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be an int.*"
                                         f"got {re.escape(repr(value))}"):
        options.validate()


def test_cli_parser():
    from repro.harness.cli import COMMANDS, build_parser
    parser = build_parser()
    args = parser.parse_args(["theory", "--workers", "4"])
    assert args.figure == "theory"
    assert args.workers == 4
    assert sorted(COMMANDS) == sorted([
        "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "theory", "overhead", "extension", "resilience", "arena",
        "granularity", "fleet", "availability"])


def test_cli_runs_theory(capsys):
    from repro.harness.cli import main
    assert main(["theory"]) == 0
    out = capsys.readouterr().out
    assert "Thm 4.3" in out
