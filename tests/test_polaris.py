"""The POLARIS SetProcessorFreq algorithm (Figure 2) and variants."""

import pytest

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.variants import PolarisFifoNoArriveScheduler, PolarisFifoScheduler
from repro.core.workload import Workload

FREQS = (1.2, 1.6, 2.0, 2.4, 2.8)


def primed_estimator(exec_at_28: dict) -> ExecutionTimeEstimator:
    """Estimator with perfect 1/f-scaled predictions per workload."""
    estimator = ExecutionTimeEstimator(window=10)
    for workload, seconds in exec_at_28.items():
        for freq in FREQS:
            estimator.prime(workload, freq, seconds * 2.8 / freq, count=10)
    return estimator


def request_for(workload: Workload, arrival: float = 0.0,
                work: float = 1.0) -> Request:
    return Request(workload, workload.name, arrival, work)


def test_frequencies_must_ascend():
    with pytest.raises(ValueError):
        PolarisScheduler((2.8, 1.2), ExecutionTimeEstimator())
    with pytest.raises(ValueError):
        PolarisScheduler((), ExecutionTimeEstimator())


def test_idle_empty_queue_selects_minimum():
    scheduler = PolarisScheduler(FREQS, ExecutionTimeEstimator())
    assert scheduler.select_frequency(0.0, None) == 1.2


def test_unexplored_estimates_explore_from_lowest():
    """Zero estimates -> lowest frequency (Section 6.1's gradual
    exploration from lowest to highest)."""
    scheduler = PolarisScheduler(FREQS, ExecutionTimeEstimator())
    workload = Workload("w", 0.010)
    running = request_for(workload)
    assert scheduler.select_frequency(0.0, running, 0.0) == 1.2


def test_running_transaction_minimum_sufficient_frequency():
    # exec(2.8) = 1 ms -> exec(1.2) = 2.333 ms.  Deadline 2.5 ms: 1.2 is
    # enough.  Deadline 1.5 ms: need exec <= 1.5 ms -> f >= 1.867 -> 2.0.
    estimator = primed_estimator({"w": 1e-3})
    scheduler = PolarisScheduler(FREQS, estimator)
    loose = Request(Workload("w", 2.5e-3), "w", 0.0, 1.0)
    assert scheduler.select_frequency(0.0, loose, 0.0) == 1.2
    tight = Request(Workload("w", 1.5e-3), "w", 0.0, 1.0)
    assert scheduler.select_frequency(0.0, tight, 0.0) == 2.0


def test_elapsed_time_reduces_remaining():
    """Same instant, same deadline: the run time so far (e0) is what
    shrinks the predicted remaining work (Figure 2, line 4)."""
    estimator = primed_estimator({"w": 1e-3})
    scheduler = PolarisScheduler(FREQS, estimator)
    request = Request(Workload("w", 3.0e-3), "w", 0.0, 1.0)
    now = 1.2e-3
    # Freshly dispatched (e0=0): 2.333 ms remaining at 1.2 GHz would
    # finish at 3.53 ms > 3 ms deadline -> 1.6 GHz needed.
    assert scheduler.select_frequency(now, request, 0.0) == 1.6
    # Running since t=0 (e0=1.2 ms): remaining@1.2 = 1.13 ms, finishing
    # at 2.33 ms -> the minimum frequency suffices.
    assert scheduler.select_frequency(now, request, now) == 1.2


def test_deadline_already_passed_runs_flat_out():
    estimator = primed_estimator({"w": 1e-3})
    scheduler = PolarisScheduler(FREQS, estimator)
    request = Request(Workload("w", 1e-3), "w", 0.0, 1.0)
    assert scheduler.select_frequency(5.0, request, 0.004) == 2.8


def test_urgent_arrival_behind_running_raises_frequency():
    """Lemma 4.2's situation: the queued transaction's deadline is
    earlier than the running one's; q-hat includes the running
    transaction's remaining time, so the frequency must cover both."""
    estimator = primed_estimator({"long": 2e-3, "short": 0.3e-3})
    scheduler = PolarisScheduler(FREQS, estimator)
    running = Request(Workload("long", 40e-3), "long", 0.0, 1.0)
    # Alone, the long transaction would idle along at 1.2 GHz.
    assert scheduler.select_frequency(0.0, running, 0.0) == 1.2
    # A short transaction with a 3 ms deadline arrives:
    # need (2ms + 0.3ms) * 2.8/f <= 3ms -> f >= 2.147 -> 2.4 GHz.
    urgent = Request(Workload("short", 3e-3), "short", 0.0, 1.0)
    scheduler.enqueue(urgent)
    assert scheduler.select_frequency(0.0, running, 0.0) == 2.4


def test_queue_cumulative_qhat():
    """Each queued transaction waits for all earlier-deadline ones."""
    estimator = primed_estimator({"w": 1e-3})
    workload = Workload("w", 10e-3)  # all deadlines at 10 ms
    scheduler = PolarisScheduler(FREQS, estimator)
    running = request_for(workload)
    for _ in range(3):
        scheduler.enqueue(request_for(workload))
    # 4 transactions, 1 ms each at 2.8: need 4 * 2.8/f <= 10 -> f >= 1.12
    assert scheduler.select_frequency(0.0, running, 0.0) == 1.2
    for _ in range(5):
        scheduler.enqueue(request_for(workload))
    # 9 transactions: 9 * 2.8/f <= 10 -> f >= 2.52 -> 2.8.
    assert scheduler.select_frequency(0.0, running, 0.0) == 2.8


def test_infeasible_queue_early_returns_max():
    estimator = primed_estimator({"w": 1e-3})
    workload = Workload("w", 2e-3)
    scheduler = PolarisScheduler(FREQS, estimator)
    running = request_for(workload)
    for _ in range(10):
        scheduler.enqueue(request_for(workload))
    scanned_before = scheduler.queue_items_scanned
    assert scheduler.select_frequency(0.0, running, 0.0) == 2.8
    # Line 14: stop checking once the highest frequency is required ---
    # with 10 queued 1 ms transactions against 2 ms deadlines, the scan
    # must abort early.
    assert scheduler.queue_items_scanned - scanned_before < 10


def test_edf_dispatch_order():
    scheduler = PolarisScheduler(FREQS, ExecutionTimeEstimator())
    late = Request(Workload("a", 10.0), "a", 0.0, 1.0)
    early = Request(Workload("b", 1.0), "b", 0.0, 1.0)
    scheduler.enqueue(late)
    scheduler.enqueue(early)
    assert scheduler.next_request() is early
    assert scheduler.next_request() is late
    assert scheduler.next_request() is None


def test_record_completion_updates_estimator():
    estimator = ExecutionTimeEstimator(window=10)
    scheduler = PolarisScheduler(FREQS, estimator)
    request = Request(Workload("w", 1.0), "w", 0.0, 1.0)
    request.dispatch_time = 0.0
    request.finish_time = 0.002
    request.dispatch_freq = 1.6
    scheduler.record_completion(request)
    assert estimator.estimate("w", 1.6) == pytest.approx(0.002)


def test_record_completion_skips_mixed_frequency_runs():
    """A run spanning a frequency change misattributes time; feeding it
    back would bias the windows optimistic (see PolarisScheduler)."""
    estimator = ExecutionTimeEstimator(window=10)
    scheduler = PolarisScheduler(FREQS, estimator)
    request = Request(Workload("w", 1.0), "w", 0.0, 1.0)
    request.dispatch_time = 0.0
    request.finish_time = 0.002
    request.dispatch_freq = 1.2
    request.single_freq = False
    scheduler.record_completion(request)
    assert estimator.estimate("w", 1.2) == 0.0
    assert estimator.observation_count("w", 1.2) == 0


def test_record_completion_requires_dispatch_freq():
    scheduler = PolarisScheduler(FREQS, ExecutionTimeEstimator())
    request = Request(Workload("w", 1.0), "w", 0.0, 1.0)
    request.dispatch_time = 0.0
    request.finish_time = 1.0
    with pytest.raises(ValueError):
        scheduler.record_completion(request)


def test_invocation_counters():
    scheduler = PolarisScheduler(FREQS, ExecutionTimeEstimator())
    scheduler.select_frequency(0.0, None)
    scheduler.select_frequency(0.0, None)
    assert scheduler.invocations == 2


def test_cell_walk_counts_equal_the_unhinted_walks(monkeypatch):
    """``invocations`` and ``queue_items_scanned`` are decision outputs:
    summed over a tiny seed-42 cell's workers they equal the counts
    recorded at the commit before the walk was hinted, so a hint that
    moves any walk's exit point fails here (CI's perf guard runs this)."""
    from repro.harness.experiment import ExperimentConfig, run_experiment

    built, init = [], PolarisScheduler.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(PolarisScheduler, "__init__", recording_init)
    run_experiment(ExperimentConfig(
        scheme="polaris", slack=10.0, load_fraction=0.9, workers=4,
        warmup_seconds=0.3, test_seconds=0.8, seed=42, trace=False))
    assert len(built) == 4
    assert (sum(s.invocations for s in built),
            sum(s.queue_items_scanned for s in built)) == (6608, 9396)


# ----------------------------------------------------------------------
# Variants (Section 6.6)
# ----------------------------------------------------------------------
def test_fifo_variant_dispatches_in_arrival_order():
    scheduler = PolarisFifoScheduler(FREQS, ExecutionTimeEstimator())
    late = Request(Workload("a", 10.0), "a", 0.0, 1.0)
    early = Request(Workload("b", 1.0), "b", 1.0, 1.0)
    scheduler.enqueue(late)
    scheduler.enqueue(early)
    assert scheduler.next_request() is late  # FIFO, not EDF
    assert scheduler.adjusts_on_arrival is True


def test_fifo_variant_qhat_uses_queue_position():
    """Under FIFO, an early-deadline transaction stuck behind a queue
    of late-deadline ones forces a high frequency (the EDF scheduler
    would simply reorder instead)."""
    estimator = primed_estimator({"long": 2e-3, "short": 0.3e-3})
    fifo = PolarisFifoScheduler(FREQS, estimator)
    edf = PolarisScheduler(FREQS, estimator)
    long_workload = Workload("long", 100e-3)
    short_workload = Workload("short", 5e-3)
    for scheduler in (fifo, edf):
        scheduler.enqueue(Request(long_workload, "long", 0.0, 1.0))
        scheduler.enqueue(Request(long_workload, "long", 0.0, 1.0))
        scheduler.enqueue(Request(short_workload, "short", 0.0, 1.0))
    running = Request(long_workload, "long", 0.0, 1.0)
    # FIFO: short waits for running + 2 longs = 6.3 ms of 2.8 GHz work
    # against a 5 ms deadline -> impossible -> flat out.
    assert fifo.select_frequency(0.0, running, 0.0) == 2.8
    # EDF: short runs right after the running transaction; 2.3 ms of
    # work against 5 ms fits far below the maximum.
    assert edf.select_frequency(0.0, running, 0.0) < 2.8


def test_noarrive_variant_flag():
    scheduler = PolarisFifoNoArriveScheduler(FREQS,
                                             ExecutionTimeEstimator())
    assert scheduler.adjusts_on_arrival is False
    assert scheduler.name == "polaris-fifo-noarrive"


def test_mu_cache_invalidated_by_observe():
    """New observations must change subsequent selections (the
    estimator patches the rows its requests carry)."""
    estimator = primed_estimator({"w": 1e-3})
    scheduler = PolarisScheduler(FREQS, estimator)
    tight = Request(Workload("w", 1.5e-3), "w", 0.0, 1.0)
    assert scheduler.select_frequency(0.0, tight, 0.0) == 2.0
    # Re-prime the estimator so the transaction now looks 10x longer:
    # no frequency suffices, so POLARIS must run flat out.
    for freq in FREQS:
        estimator.prime("w", freq, 10e-3 * 2.8 / freq, count=1000)
    assert scheduler.select_frequency(0.0, tight, 0.0) == 2.8
