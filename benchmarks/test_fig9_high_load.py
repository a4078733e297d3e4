"""Figure 9: TPC-C high load (90% of peak).

Shape claims (Section 6.3): little room for power optimization ---
POLARIS and OnDemand shave only ~10 W off the peak-frequency draw, and
everyone misses many deadlines at tight slack (requests transiently
arrive faster than the system can absorb even at peak frequency), with
POLARIS missing the fewest.
"""

from repro.harness import figures


def test_fig9_high_load(figure_options):
    result = figures.run_figure(figures.FIGURES["fig9"], figure_options)
    print(result.render())

    polaris_p = result.power("polaris")
    static28_p = result.power("static-2.8")
    ondemand_p = result.power("ondemand")

    # Savings shrink to roughly 10 W (paper: "only by about 10 watts").
    assert all(3 < s - p < 20 for s, p in zip(static28_p, polaris_p))
    assert all(2 < s - o < 15 for s, o in zip(static28_p, ondemand_p))

    # Tight slack: everyone fails a lot; POLARIS fails least.
    tight = {label: result.failure(label)[0] for label in result.axis(0)}
    assert tight["static-2.8"] > 0.25
    assert tight["polaris"] < tight["static-2.8"]
    assert tight["polaris"] < tight["ondemand"]

    # Loose slack: POLARIS exploits its deadline-awareness to recover
    # almost completely while still saving power.
    loose = {label: result.failure(label)[-1] for label in result.axis(0)}
    assert loose["polaris"] < 0.05
    assert loose["polaris"] <= loose["static-2.8"]
