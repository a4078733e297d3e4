"""Extension bench: the paper's Section 8 future-work direction.

"By controlling how transactions are distributed to workers, we can
obtain additional power savings by allowing some workers (and their
cores) to idle and move into low-power C-states."

This bench sweeps routing policy x C-state ladder for POLARIS at low
load and records the findings of this reproduction:

* deep C-states save a further ~2-3 W under any routing;
* least-loaded (join-shortest-queue) routing dominates the paper's
  round-robin on BOTH power and failure rate;
* consolidating load onto few workers ("packing") is counterproductive
  under per-core DVFS: the convex power curve (f^alpha) makes many slow
  cores cheaper than few fast ones, so packing pays more power AND more
  misses.  The Section 8 intuition needs package-level idle states to
  pay off --- per-core C-states alone do not reward consolidation.
"""

from repro.harness import figures


def test_extension_worker_parking(figure_options):
    result = figures.run_figure(figures.FIGURES["extension"], figure_options)
    print(result.render())

    def cell(*key):
        return result.power(*key), result.failure(*key)

    rr_c1 = cell("rh-round-robin", "c1")
    rr_deep = cell("rh-round-robin", "deep")
    ll_deep = cell("least-loaded", "deep")
    pack_deep = cell("packing", "deep")

    # Deep C-states save additional power under round-robin.
    assert rr_c1[0] - rr_deep[0] > 1.0
    # Least-loaded + deep dominates the paper's configuration.
    assert ll_deep[0] < rr_c1[0] - 2.0
    assert ll_deep[1] < rr_c1[1]
    # The negative result: packing beats neither on this power model.
    assert pack_deep[0] >= ll_deep[0]
    assert pack_deep[1] >= ll_deep[1]
