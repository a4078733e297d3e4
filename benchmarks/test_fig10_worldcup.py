"""Figure 10: time-varying load from the World Cup-style trace.

Shape claims (Section 6.4, Figure 10(b)): POLARIS achieves both the
lowest average power AND the lowest failure rate; Conservative burns
the most power; OnDemand lands in between on power but misses the most
deadlines.  All schemes' power tracks the load, POLARIS's adjustments
being the deepest.
"""

from repro.harness import figures
from repro.harness.experiment import TIMELINE_BIN_S


def test_fig10_worldcup(figure_options):
    result = figures.run_figure(figures.FIGURES["fig10"], figure_options)
    print(result.render())

    power = {scheme: result.power(scheme) for scheme in result.axis(0)}
    failure = {scheme: result.failure(scheme) for scheme in result.axis(0)}
    timelines = {scheme: result.cells[(scheme,)].power_timeline
                 for scheme in result.axis(0)}

    # Paper Figure 10(b) ordering: Conservative 168.9/0.09,
    # OnDemand 152.9/0.13, POLARIS 139/0.07.
    assert power["polaris"] < power["ondemand"] < power["conservative"]
    assert failure["polaris"] <= failure["ondemand"]
    assert failure["polaris"] <= failure["conservative"] + 0.01

    # Every scheme's power timeline tracks the load: power in the
    # highest-load fifth of bins exceeds the lowest-load fifth.  A bin
    # is paired with the mean of the one-second trace samples it covers
    # (the test phase, and so the trace, starts after the warmup).
    trace = result.results[0].config.load_trace
    for label, series in timelines.items():
        assert len(series) >= 4
        paired = []
        for centre, watts in series:
            first = round(centre - TIMELINE_BIN_S / 2
                          - figure_options.warmup_seconds)
            covered = trace[first:first + round(TIMELINE_BIN_S)]
            paired.append((sum(covered) / len(covered), watts))
        paired.sort()
        fifth = max(1, len(paired) // 5)
        low_mean = sum(w for _, w in paired[:fifth]) / fifth
        high_mean = sum(w for _, w in paired[-fifth:]) / fifth
        assert high_mean > low_mean, label

    # POLARIS's adjustments are the deepest: largest power swing.
    swings = {label: max(w for _, w in series) - min(w for _, w in series)
              for label, series in timelines.items()}
    assert swings["polaris"] >= swings["conservative"] - 2.0
