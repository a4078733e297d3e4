"""Figure-reproduction functions: structure smoke tests at tiny scale.

The full-size shape assertions live in benchmarks/; here we only check
that each figure function produces well-formed results quickly.
"""

import pytest

from repro.harness import figures

TINY = figures.FigureOptions(workers=2, warmup_seconds=0.3,
                             test_seconds=0.8, trace_seconds=10,
                             seed=5, slacks=(10, 70))


def test_slack_sweep_structure():
    result = figures.slack_sweep("tpcc", 0.6, ("polaris", "static-2.8"),
                                 TINY, "test sweep")
    assert set(result.series) == {"POLARIS", "2.8 GHz"}
    assert result.slacks == (10, 70)
    assert len(result.power("POLARIS")) == 2
    assert all(p > 0 for p in result.power("POLARIS"))
    assert all(0 <= f <= 1 for f in result.failure("2.8 GHz"))
    text = result.render()
    assert "slack=10" in text and "POLARIS" in text


def test_fig3_structure():
    result = figures.fig3_exec_times(TINY)
    assert set(result.rows) == {"NewOrder", "Payment", "OrderStatus",
                                "StockLevel", "Combined"}
    for name, (m28, p28, m12, p12) in result.rows.items():
        assert 0 < m28 <= p28, name
        assert m28 < m12, name  # slower at 1.2 GHz
    assert "Figure 3" in result.render()


def test_fig10_structure():
    result = figures.fig10_worldcup(TINY)
    assert set(result.summary) == {"POLARIS", "OnDemand", "Conservative"}
    assert len(result.trace) == TINY.trace_seconds
    for label, series in result.timelines.items():
        assert series, label
    rendered = result.render()
    assert "Failure Rate" in rendered


def test_fleet_frontier_structure():
    result = figures.fleet_elastic_frontier(TINY)
    labels = set(result.summary)
    assert any("elastic" in label for label in labels)
    assert any("static" in label for label in labels)
    assert len(result.trace) == TINY.trace_seconds
    assert result.peak_rate_tps > 100.0  # 1000x-scaled diurnal peak
    for label in labels:
        assert result.power(label) > 0
        assert 0 <= result.failure(label) <= 1
        assert set(result.per_shard[label]) == {"shard0", "shard1"}
    rendered = result.render()
    assert "provisioning frontier" in rendered
    assert "Stale Bounces" in rendered


def test_fig11_structure():
    result = figures.fig11_differentiation(TINY)
    assert ("POLARIS", "gold") in result.failures
    assert ("POLARIS", "silver") in result.failures
    assert result.power["POLARIS"] > 0
    assert isinstance(result.gap("POLARIS"), float)
    assert "gold" in result.render()


def test_theory_competitive_structure():
    result = figures.theory_competitive(trials=2, jobs=6)
    assert len(result.agreeable_polaris_vs_oa) == 2
    assert len(result.oa_vs_yds) == 2
    for ratio in result.agreeable_polaris_vs_oa:
        assert ratio == pytest.approx(1.0, rel=1e-6)
    assert "Thm 4.3" in result.render()


def test_overhead_structure():
    result = figures.polaris_overhead(queue_lengths=(0, 8), repeats=20)
    assert set(result.micros) == set(result.escalating) == {0, 8}
    assert all(us > 0 for us in result.micros.values())
    assert all(us > 0 for us in result.escalating.values())
    assert "escalating" in result.render()
    assert "queue length" in result.render()


def test_figure_options_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "2.0")
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "8")
    options = figures.FigureOptions.from_env()
    assert options.test_seconds == pytest.approx(8.0)
    assert options.workers == 8
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    monkeypatch.delenv("REPRO_BENCH_WORKERS")
    assert figures.FigureOptions.from_env().workers == 16


def test_cli_parser():
    from repro.harness.cli import COMMANDS, build_parser
    parser = build_parser()
    args = parser.parse_args(["theory", "--workers", "4"])
    assert args.figure == "theory"
    assert args.workers == 4
    assert set(COMMANDS) >= {"fig3", "fig6", "fig7", "fig8", "fig9",
                             "fig10", "fig11", "fig12", "theory",
                             "overhead", "fleet"}


def test_cli_runs_theory(capsys):
    from repro.harness.cli import main
    assert main(["theory"]) == 0
    out = capsys.readouterr().out
    assert "Thm 4.3" in out
