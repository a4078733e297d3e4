"""Section 4: empirical verification of the competitive analysis."""

import pytest

from repro.harness import figures


def test_theory_competitive():
    result = figures.theory_competitive(trials=8, jobs=12)
    print(result.render())

    alpha = result.alpha

    # Theorem 4.3: on agreeable instances POLARIS behaves exactly like
    # OA --- energies match to numerical precision.
    for ratio in result.agreeable_polaris_vs_oa:
        assert ratio == pytest.approx(1.0, rel=1e-6)

    # Bansal et al.: OA is alpha^alpha-competitive against YDS.
    for ratio in result.oa_vs_yds:
        assert 1.0 - 1e-9 <= ratio <= alpha ** alpha

    # Corollary 4.6: POLARIS within (c*alpha)^alpha of YDS.
    for ratio, bound in result.polaris_vs_yds_arbitrary:
        assert 1.0 - 1e-9 <= ratio <= bound

    # Section 4.6 adversarial pair: the non-preemption penalty really
    # reaches the c^alpha regime (within its bound).
    ratio, c_alpha, bound = result.adversarial
    assert ratio > 0.2 * c_alpha
    assert ratio <= bound

    # Appendix C: the potential-function claims hold numerically along
    # real POLARIS/YDS trajectories.
    checked, held, jump, drift = result.appendix_c
    assert checked >= 2
    assert held
    assert jump < 1e-6
    assert drift < 1e-6
