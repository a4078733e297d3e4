"""Extension bench: admission control under overload (Section 1).

The paper's introduction names the DBMS's second lever over the OS:
it "can reorder requests, or reject low value requests when load is
high".  POLARIS-SHED exercises that lever: at arrival it rejects any
request whose deadline is already hopeless at the maximum frequency
(predicted queueing behind earlier-deadline work plus its own p95
execution time overshoots the deadline).

Measured trade-off at high load, tight slack:

* the *admitted* work becomes almost entirely on-time (late-completion
  rate drops several-fold) and power falls sharply --- no cycles are
  burned racing transactions that were going to be late anyway;
* the *total* failure rate (rejections count as misses) rises, because
  the p95-conservative predicate sheds marginal requests that plain
  POLARIS would sometimes have saved.

Admission control is a policy for when late answers are worthless; it
is not a free lunch on the paper's failure metric.
"""

from repro.harness.experiment import run_experiment
from repro.metrics.report import format_table


def test_extension_admission_control(figure_options):
    results = {
        scheme: run_experiment(figure_options.base_config(
            scheme=scheme, benchmark="tpcc", load_fraction=0.9, slack=10.0))
        for scheme in ("polaris", "polaris-shed")}

    rows = []
    for scheme, result in results.items():
        late = result.missed - result.rejected
        late_rate = late / max(1, result.completed)
        rows.append([scheme, f"{result.avg_power_watts:.1f}",
                     f"{result.failure_rate:.3f}",
                     f"{result.rejected}", f"{late_rate:.3f}"])
    print(format_table(
        ["scheme", "power (W)", "total failure", "rejected",
         "late rate among completed"],
        rows,
        title="Extension: admission control, TPC-C high load, slack 10"))

    polaris = results["polaris"]
    shed = results["polaris-shed"]
    # Plain POLARIS rejects nothing; SHED rejects under overload.
    assert polaris.rejected == 0
    assert shed.rejected > 0
    # Admitted work is dramatically more punctual...
    polaris_late_rate = (polaris.missed - polaris.rejected) \
        / max(1, polaris.completed)
    shed_late_rate = (shed.missed - shed.rejected) / max(1, shed.completed)
    assert shed_late_rate < 0.5 * polaris_late_rate
    # ...at visibly lower power.
    assert shed.avg_power_watts < polaris.avg_power_watts - 10.0
    # The honest cost: total failures (with rejects counted) don't drop.
    assert shed.failure_rate >= polaris.failure_rate - 0.05
