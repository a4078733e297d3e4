"""Figure 7: TPC-E at medium load, ten per-type workloads.

Shape claims (Section 6.2.1): POLARIS reduces power substantially
relative to peak frequency, with bigger savings at larger slack;
OnDemand fares better than on TPC-C but still consumes more power and
misses more deadlines than POLARIS.
"""

from repro.harness import figures


def test_fig7_tpce_medium(figure_options):
    result = figures.run_figure(figures.FIGURES["fig7"], figure_options)
    print(result.render())

    polaris_p = result.power("polaris")
    static28_p = result.power("static-2.8")
    ondemand_p = result.power("ondemand")
    conservative_p = result.power("conservative")

    # POLARIS saves ~30-40 W vs peak frequency.
    assert all(s - p > 18 for s, p in zip(static28_p, polaris_p))
    assert static28_p[-1] - polaris_p[-1] > 28

    # Conservative again shadows the static peak at medium load.
    assert all(abs(a - b) < 5 for a, b in zip(conservative_p, static28_p))

    # OnDemand: more power and more misses than POLARIS beyond the
    # tightest slack.
    assert all(o >= p - 1.0 for o, p in zip(ondemand_p, polaris_p))
    for i in range(1, len(result.axis(1))):
        assert result.failure("ondemand")[i] \
            >= result.failure("polaris")[i]

    # Failures decline monotonically with slack for every scheme.
    for label in result.axis(0):
        failures = result.failure(label)
        assert all(a >= b - 0.02 for a, b in zip(failures, failures[1:]))
