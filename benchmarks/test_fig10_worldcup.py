"""Figure 10: time-varying load from the World Cup-style trace.

Shape claims (Section 6.4, Figure 10(b)): POLARIS achieves both the
lowest average power AND the lowest failure rate; Conservative burns
the most power; OnDemand lands in between on power but misses the most
deadlines.  All schemes' power tracks the load, POLARIS's adjustments
being the deepest.
"""

from repro.harness import figures


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
    # highest-load fifth of bins exceeds the lowest-load fifth.
    trace = result.results[0].config.load_trace
    for label, series in timelines.items():
        assert len(series) >= 4
        paired = []
        bin_width = figure_options.timeline_bin_seconds \
            if hasattr(figure_options, "timeline_bin_seconds") else 5.0
        for centre, watts in series:
            index = int(centre - 1.0)  # test phase starts after warmup
            index = min(max(index, 0), len(trace) - 1)
            paired.append((trace[index], watts))
        paired.sort()
        fifth = max(1, len(paired) // 5)
        low_mean = sum(w for _, w in paired[:fifth]) / fifth
        high_mean = sum(w for _, w in paired[-fifth:]) / fifth
        assert high_mean > low_mean, label

    # POLARIS's adjustments are the deepest: largest power swing.
    swings = {label: max(w for _, w in series) - min(w for _, w in series)
              for label, series in timelines.items()}
    assert swings["polaris"] >= swings["conservative"] - 2.0
