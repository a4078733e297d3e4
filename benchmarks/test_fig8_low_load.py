"""Figure 8: TPC-C low load (30% of peak).

Shape claims (Section 6.3): POLARIS saves ~40 W relative to peak
frequency; Conservative achieves the *same* savings but at
significantly higher miss rates when slack is tight; OnDemand sits in
between and is dominated by POLARIS.  This is where the two Linux
governors swap roles relative to medium load.
"""

from repro.harness import figures


def test_fig8_low_load(figure_options):
    result = figures.run_figure(figures.FIGURES["fig8"], figure_options)
    print(result.render())

    polaris_p = result.power("polaris")
    static28_p = result.power("static-2.8")
    conservative_p = result.power("conservative")
    ondemand_p = result.power("ondemand")

    # ~40 W savings for POLARIS vs the 2.8 GHz baseline.
    assert all(30 < s - p < 55 for s, p in zip(static28_p, polaris_p))

    # Conservative matches POLARIS's savings at low load...
    assert all(abs(c - p) < 8 for c, p in zip(conservative_p, polaris_p))

    # ...but misses far more deadlines at tight slack, and OnDemand is
    # dominated by POLARIS (the paper's role-switch observation).
    tight = {label: result.failure(label)[0] for label in result.axis(0)}
    assert tight["conservative"] > 1.3 * tight["polaris"]
    assert tight["ondemand"] > tight["polaris"]
    assert tight["conservative"] > tight["static-2.8"]

    # OnDemand's power lies between POLARIS/Conservative and 2.8 GHz.
    assert all(p - 3 <= o <= s for p, o, s in
               zip(polaris_p, ondemand_p, static28_p))
