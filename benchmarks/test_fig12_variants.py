"""Figure 12: POLARIS component analysis.

Shape claims (Section 6.6): both EDF ordering and on-arrival frequency
adjustment matter at tight slack --- failure rates order
POLARIS < POLARIS-FIFO < POLARIS-FIFO-NOARRIVE; POLARIS-FIFO pays some
extra power over NOARRIVE for its arrival-triggered speedups; and EDF
contributes power savings (POLARIS meets targets at lower frequencies).
"""

from repro.harness import figures


def test_fig12_variants(figure_options):
    result = figures.run_figure(figures.FIGURES["fig12"], figure_options)
    print(result.render())

    polaris_f = result.failure("polaris")
    fifo_f = result.failure("polaris-fifo")
    noarrive_f = result.failure("polaris-fifo-noarrive")

    # Failure ordering holds across the whole slack axis.
    for i in range(len(result.axis(1))):
        assert polaris_f[i] <= fifo_f[i] + 0.01, result.axis(1)[i]
        assert fifo_f[i] <= noarrive_f[i] + 0.01, result.axis(1)[i]

    # At tight slack the gaps are substantial.
    assert noarrive_f[0] > 1.5 * polaris_f[0]

    # EDF also saves power: POLARIS draws the least at loose slack.
    polaris_p = result.power("polaris")
    fifo_p = result.power("polaris-fifo")
    assert polaris_p[-1] <= fifo_p[-1]
