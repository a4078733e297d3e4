"""Figure 3: TPC-C mean and P95 execution times at max/min frequency."""

import pytest

from repro.harness import figures
from repro.workloads.tpcc import FIGURE3_AT_1200MHZ, FIGURE3_CALIBRATION


def test_fig3_exec_times(figure_options):
    result = figures.fig3_exec_times(figure_options)
    print(result.render())

    for name, (_mix, mean_s, p95_s) in FIGURE3_CALIBRATION.items():
        m28, p28, m12, p12 = result.rows[name]
        # Measured 2.8 GHz stats must match the paper's table.
        assert m28 == pytest.approx(mean_s * 1e6, rel=0.12), name
        assert p28 == pytest.approx(p95_s * 1e6, rel=0.20), name
        # The 1.2 GHz column follows from pure 1/f scaling, as the
        # paper's measurements do (2.32-2.44x between the columns).
        assert m12 / m28 == pytest.approx(2.8 / 1.2, rel=0.10), name
        paper_m12, paper_p12 = FIGURE3_AT_1200MHZ[name]
        assert m12 == pytest.approx(paper_m12 * 1e6, rel=0.35), name
        assert p12 == pytest.approx(paper_p12 * 1e6, rel=0.35), name

    # Tail heaviness: P95 is 2.5-4.8x the mean overall (Section 3.2).
    combined_m, combined_p95, _, _ = result.rows["Combined"]
    assert 2.0 < combined_p95 / combined_m < 5.5
