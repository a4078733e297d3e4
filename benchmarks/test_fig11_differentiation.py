"""Figure 11: per-workload performance for gold and silver tiers.

Shape claims (Section 6.5): the deadline-blind managers show a large
gap between gold (7.5 ms target) and silver (37.5 ms target) failure
rates --- gold fails much more because its target is tighter.  POLARIS
produces similar failure rates for both: gold far less likely to miss,
silver slightly more likely, at lower power.
"""

from repro.harness import figures


def test_fig11_differentiation(figure_options):
    result = figures.run_figure(figures.FIGURES["fig11"], figure_options)
    print(result.render())

    # Deadline-blind schemes: large gold-vs-silver gap.
    blind = ("static-2.8", "conservative", "ondemand")
    for scheme in blind:
        assert figures.tier_gap(result, scheme) > 0.10, scheme

    # POLARIS equalizes the tiers: its gap is far smaller...
    assert figures.tier_gap(result, "polaris") < 0.6 * min(
        figures.tier_gap(result, scheme) for scheme in blind)

    # ...its gold tier beats OnDemand's gold tier outright...
    def failure(scheme, tier):
        return result.cells[(scheme,)].per_workload_failure[tier]

    assert failure("polaris", "gold") < failure("ondemand", "gold")

    # ...silver pays slightly (but only slightly) for it...
    assert failure("polaris", "silver") >= failure("static-2.8", "silver")
    assert failure("polaris", "silver") < 0.15

    # ...and POLARIS still draws the least power.
    assert result.power("polaris") == min(result.power())
