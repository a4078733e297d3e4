"""Property-based invariants of SetProcessorFreq (Figure 2).

These hold for *any* workload/queue configuration:

* the selected frequency is always on the grid;
* enqueueing an additional request can only push the frequency up;
* loosening a deadline can only let the frequency fall;
* inflating the estimator's predictions can only push the frequency up;
* the selection is deterministic in its inputs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.workload import Workload

FREQS = (1.2, 1.6, 2.0, 2.4, 2.8)


def build_scheduler(exec_ms: float, scale: float = 1.0) -> PolarisScheduler:
    estimator = ExecutionTimeEstimator(window=4)
    for freq in FREQS:
        estimator.prime("w", freq, scale * exec_ms * 1e-3 * 2.8 / freq,
                        count=4)
    return PolarisScheduler(FREQS, estimator)


queue_strategy = st.lists(
    st.tuples(st.floats(min_value=0.5, max_value=200.0),   # target ms
              st.floats(min_value=0.0, max_value=50.0)),   # arrival ms
    max_size=12)


def populate(scheduler, queue_params):
    requests = []
    for target_ms, arrival_ms in queue_params:
        workload = Workload("w", target_ms * 1e-3)
        request = Request(workload, "w", arrival_ms * 1e-3, 1.0)
        scheduler.enqueue(request)
        requests.append(request)
    return requests


def running_request() -> Request:
    """A fresh ``t0`` per scheduler: ``select_frequency`` stamps an
    unstamped ``running`` with *its* estimator's row, so one request
    handed to two schedulers would carry the first one's estimates into
    the second one's walk."""
    return Request(Workload("w", 0.05), "w", 0.0, 1.0)


@settings(max_examples=120, deadline=None)
@given(queue_params=queue_strategy,
       exec_ms=st.floats(min_value=0.05, max_value=5.0),
       now_ms=st.floats(min_value=0.0, max_value=60.0))
def test_selected_frequency_on_grid_and_deterministic(queue_params,
                                                      exec_ms, now_ms):
    scheduler = build_scheduler(exec_ms)
    populate(scheduler, queue_params)
    running = Request(Workload("w", 0.05), "w", 0.0, 1.0)
    first = scheduler.select_frequency(now_ms * 1e-3, running, 1e-4)
    second = scheduler.select_frequency(now_ms * 1e-3, running, 1e-4)
    assert first in FREQS
    assert first == second


@settings(max_examples=120, deadline=None)
@given(queue_params=queue_strategy,
       exec_ms=st.floats(min_value=0.05, max_value=5.0),
       extra_target_ms=st.floats(min_value=0.5, max_value=200.0))
def test_adding_work_never_lowers_frequency(queue_params, exec_ms,
                                            extra_target_ms):
    baseline = build_scheduler(exec_ms)
    augmented = build_scheduler(exec_ms)
    populate(baseline, queue_params)
    populate(augmented, queue_params)
    augmented.enqueue(Request(Workload("w", extra_target_ms * 1e-3),
                              "w", 0.0, 1.0))
    assert augmented.select_frequency(0.0, running_request(), 0.0) \
        >= baseline.select_frequency(0.0, running_request(), 0.0)


@settings(max_examples=120, deadline=None)
@given(queue_params=queue_strategy,
       exec_ms=st.floats(min_value=0.05, max_value=5.0),
       slack_factor=st.floats(min_value=1.0, max_value=10.0))
def test_loosening_deadlines_never_raises_frequency(queue_params, exec_ms,
                                                    slack_factor):
    tight = build_scheduler(exec_ms)
    loose = build_scheduler(exec_ms)
    for target_ms, arrival_ms in queue_params:
        tight.enqueue(Request(Workload("w", target_ms * 1e-3), "w",
                              arrival_ms * 1e-3, 1.0))
        loose.enqueue(Request(
            Workload("w", target_ms * slack_factor * 1e-3), "w",
            arrival_ms * 1e-3, 1.0))
    running_tight = Request(Workload("w", 0.05), "w", 0.0, 1.0)
    running_loose = Request(Workload("w", 0.05 * slack_factor), "w",
                            0.0, 1.0)
    assert loose.select_frequency(0.0, running_loose, 0.0) \
        <= tight.select_frequency(0.0, running_tight, 0.0)


@settings(max_examples=120, deadline=None)
@given(queue_params=queue_strategy,
       exec_ms=st.floats(min_value=0.05, max_value=5.0),
       inflation=st.floats(min_value=1.0, max_value=5.0))
def test_larger_estimates_never_lower_frequency(queue_params, exec_ms,
                                                inflation):
    """Conservatism is safe: inflating mu(c, f) can only speed us up ---
    the formal footing for the paper's p95-tail estimator choice."""
    normal = build_scheduler(exec_ms)
    inflated = build_scheduler(exec_ms, scale=inflation)
    populate(normal, queue_params)
    populate(inflated, queue_params)
    assert inflated.select_frequency(0.0, running_request(), 0.0) \
        >= normal.select_frequency(0.0, running_request(), 0.0)


@settings(max_examples=80, deadline=None)
@given(queue_params=queue_strategy,
       exec_ms=st.floats(min_value=0.05, max_value=5.0))
def test_predicted_feasibility_of_selected_frequency(queue_params, exec_ms):
    """Unless the maximum frequency is selected, the chosen frequency
    must be predicted to meet every deadline in the queue."""
    scheduler = build_scheduler(exec_ms)
    requests = populate(scheduler, queue_params)
    running = Request(Workload("w", 1.0), "w", 0.0, 1.0)
    now = 0.0
    freq = scheduler.select_frequency(now, running, 0.0)
    if freq == FREQS[-1]:
        return  # flat out: feasibility not guaranteed by design
    estimate = scheduler.estimator.estimate
    cumulative = estimate("w", freq)  # running remainder (e0 = 0)
    for request in sorted(requests,
                          key=lambda r: (r.deadline, r.request_id)):
        cumulative += estimate("w", freq)
        assert now + cumulative <= request.deadline + 1e-9
