"""Sliding-window percentile estimation (paper Section 3.2)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import (
    ExecutionTimeEstimator, ListSlidingWindowPercentile,
    SlidingWindowPercentile,
)


def reference_percentile(values, p):
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def test_empty_tracker_returns_zero():
    tracker = SlidingWindowPercentile()
    assert tracker.value() == 0.0
    assert len(tracker) == 0
    assert not tracker.full


def test_percentile_of_known_values():
    tracker = SlidingWindowPercentile(window=100, percentile=95)
    for v in range(1, 101):  # 1..100
        tracker.observe(float(v))
    assert tracker.value() == 95.0
    assert tracker.full


def test_median_mode():
    tracker = SlidingWindowPercentile(window=10, percentile=50)
    for v in [5, 1, 9, 3, 7]:
        tracker.observe(v)
    assert tracker.value() == 5


def test_sliding_eviction():
    tracker = SlidingWindowPercentile(window=3, percentile=100)
    for v in [10.0, 20.0, 30.0]:
        tracker.observe(v)
    assert tracker.value() == 30.0
    tracker.observe(5.0)  # evicts 10.0
    assert tracker.value() == 30.0
    tracker.observe(5.0)  # evicts 20.0
    tracker.observe(5.0)  # evicts 30.0
    assert tracker.value() == 5.0
    assert len(tracker) == 3


def test_duplicate_values_evict_correctly():
    tracker = SlidingWindowPercentile(window=2, percentile=100)
    tracker.observe(1.0)
    tracker.observe(1.0)
    tracker.observe(2.0)
    assert sorted(tracker._sorted) == [1.0, 2.0]


def test_validation():
    with pytest.raises(ValueError):
        SlidingWindowPercentile(window=0)
    with pytest.raises(ValueError):
        SlidingWindowPercentile(percentile=0.0)
    with pytest.raises(ValueError):
        SlidingWindowPercentile(percentile=101.0)
    with pytest.raises(ValueError):
        SlidingWindowPercentile().observe(-1.0)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200),
    window=st.integers(min_value=1, max_value=50),
    percentile=st.floats(min_value=1.0, max_value=100.0))
def test_property_matches_reference_over_window(values, window, percentile):
    """The tracker equals the order statistic of the last ``window``
    observations, for any percentile."""
    tracker = SlidingWindowPercentile(window, percentile)
    for v in values:
        tracker.observe(v)
    expected = reference_percentile(values[-window:], percentile)
    assert tracker.value() == expected


# ----------------------------------------------------------------------
# Chunked structure vs the plain-list reference implementation
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=400),
    window=st.integers(min_value=1, max_value=120),
    percentile=st.floats(min_value=1.0, max_value=100.0))
def test_property_chunked_agrees_with_list_impl(values, window, percentile):
    """The chunked tracker must be observationally identical to the
    plain-list implementation it replaced: same value() after every
    observe, same final window contents."""
    chunked = SlidingWindowPercentile(window, percentile)
    listy = ListSlidingWindowPercentile(window, percentile)
    for v in values:
        chunked.observe(v)
        listy.observe(v)
        assert chunked.value() == listy.value()
    assert len(chunked) == len(listy)
    assert chunked.full == listy.full
    assert list(chunked._sorted) == list(listy._sorted)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0]),
                min_size=1, max_size=300))
def test_property_chunked_agrees_on_heavy_duplicates(values):
    """Duplicate-dense streams stress the eviction bookkeeping (many
    equal keys in the same and adjacent chunks)."""
    chunked = SlidingWindowPercentile(window=7, percentile=95)
    listy = ListSlidingWindowPercentile(window=7, percentile=95)
    for v in values:
        chunked.observe(v)
        listy.observe(v)
    assert chunked.value() == listy.value()
    assert list(chunked._sorted) == list(listy._sorted)


#: Few distinct values, so evicted and inserted values tie with the
#: percentile (and with each other) on most observations.
tied = st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.0]),
                min_size=1, max_size=120)


@settings(max_examples=200, deadline=None)
@given(values=tied, window=st.integers(min_value=1, max_value=9),
       percentile=st.sampled_from([1.0, 50.0, 95.0, 100.0]))
def test_property_same_side_rule_never_keeps_a_stale_percentile(
        values, window, percentile):
    """``observe`` returns False only when ``value()`` cannot have
    moved: equal to the list implementation after *every* observe, on
    streams with heavy ties at the percentile, window 1, percentile 100
    and a window still filling (which must always report a move)."""
    chunked = SlidingWindowPercentile(window, percentile)
    listy = ListSlidingWindowPercentile(window, percentile)
    for v in values:
        before = chunked.value()
        was_full = chunked.full
        moved = chunked.observe(v)
        listy.observe(v)
        assert chunked.value() == listy.value()
        assert moved or (was_full and chunked.value() == before)
    assert list(chunked._sorted) == list(listy._sorted)


@settings(max_examples=150, deadline=None)
@given(head=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=3),
       values=st.lists(st.one_of(st.floats(min_value=0.0, max_value=10.0),
                                 st.sampled_from([1.0, 2.0])),
                       max_size=150),
       window=st.integers(min_value=1, max_value=120),
       percentile=st.sampled_from([50.0, 95.0, 100.0]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_property_fill_equals_sequential_observes(head, values, window,
                                                  percentile, seed):
    """``fill(xs)`` is ``for x in xs: observe(x)`` --- on an empty window
    that fits them (one sort; run boundaries differ, nothing observable
    does), on one that does not, and on a window already holding
    ``head`` --- now and over 200 further observations."""
    filled = SlidingWindowPercentile(window, percentile)
    stepped = SlidingWindowPercentile(window, percentile)
    for v in head:
        filled.observe(v)
        stepped.observe(v)
    filled.fill(values)
    for v in values:
        stepped.observe(v)
    rng = random.Random(seed)
    for step in range(201):
        assert filled.value() == stepped.value()
        assert len(filled) == len(stepped)
        assert filled.full == stepped.full
        assert filled.observations == stepped.observations
        v = rng.choice([rng.random() * 10.0, 1.0, 2.0])
        assert filled.observe(v) == stepped.observe(v), step
    assert filled._sorted == stepped._sorted
    assert list(filled._order) == list(stepped._order)


def test_fill_rejects_bad_values_before_recording_any():
    for bad in (float("nan"), -1.0):
        tracker = SlidingWindowPercentile(window=4, percentile=100)
        with pytest.raises(ValueError):
            tracker.fill([1.0, bad])
        assert (len(tracker), tracker.observations) == (0, 0)
        tracker.observe(3.0)
        with pytest.raises(ValueError):
            tracker.fill([1.0, bad])  # the sequential path, equally
        assert (tracker.value(), tracker.observations) == (3.0, 1)


def test_chunked_splits_past_chunk_capacity():
    """A window far beyond one chunk still matches the reference."""
    chunked = SlidingWindowPercentile(window=1000, percentile=95)
    listy = ListSlidingWindowPercentile(window=1000, percentile=95)
    rng = random.Random(7)
    for _ in range(3000):
        v = rng.expovariate(1.0)
        chunked.observe(v)
        listy.observe(v)
    assert chunked.value() == listy.value()
    assert list(chunked._sorted) == list(listy._sorted)


# ----------------------------------------------------------------------
# ExecutionTimeEstimator
# ----------------------------------------------------------------------
def test_estimator_unseen_pair_is_zero():
    """Zero-initialized estimates drive the paper's lowest-to-highest
    frequency exploration (Section 6.1)."""
    estimator = ExecutionTimeEstimator()
    assert estimator.estimate("w", 2.8) == 0.0


def test_estimator_tracks_per_pair():
    estimator = ExecutionTimeEstimator(window=10, percentile=95)
    for _ in range(10):
        estimator.observe("a", 2.8, 1.0)
        estimator.observe("a", 1.2, 2.5)
        estimator.observe("b", 2.8, 9.0)
    assert estimator.estimate("a", 2.8) == 1.0
    assert estimator.estimate("a", 1.2) == 2.5
    assert estimator.estimate("b", 2.8) == 9.0
    assert estimator.observation_count("a", 2.8) == 10
    assert estimator.observation_count("zzz", 2.8) == 0
    assert estimator.pairs() == [("a", 1.2), ("a", 2.8), ("b", 2.8)]


def test_estimator_prime_fills_window():
    estimator = ExecutionTimeEstimator(window=100)
    estimator.prime("w", 2.0, 0.005, count=100)
    assert estimator.estimate("w", 2.0) == 0.005
    assert estimator.observation_count("w", 2.0) == 100


def test_estimator_adapts_to_shift():
    """The sliding window forgets the old regime (paper: 'it can adapt
    to changing workloads and system conditions')."""
    estimator = ExecutionTimeEstimator(window=50, percentile=95)
    for _ in range(50):
        estimator.observe("w", 2.8, 1.0)
    for _ in range(50):
        estimator.observe("w", 2.8, 3.0)
    assert estimator.estimate("w", 2.8) == 3.0


def test_estimator_p95_is_conservative():
    """With a skewed sample, the p95 estimate sits near the tail, so
    most transactions finish earlier than predicted."""
    estimator = ExecutionTimeEstimator(window=1000, percentile=95)
    rng = random.Random(0)
    samples = [rng.lognormvariate(0.0, 0.8) for _ in range(1000)]
    for s in samples:
        estimator.observe("w", 2.8, s)
    estimate = estimator.estimate("w", 2.8)
    above = sum(1 for s in samples if s > estimate)
    assert above <= 0.05 * len(samples)
    assert estimate > sum(samples) / len(samples)  # above the mean


def test_nan_observation_is_rejected_before_it_corrupts_the_window():
    """``nan < 0`` is False, so the old guard let NaN into the sorted
    runs, after which bisect placed every later value wrongly."""
    tracker = SlidingWindowPercentile(window=4, percentile=100)
    for value in (3.0, 1.0):
        tracker.observe(value)
    with pytest.raises(ValueError):
        tracker.observe(float("nan"))
    assert tracker.observations == 2
    for value in (2.0, 4.0):
        tracker.observe(value)
    assert tracker._sorted == [1.0, 2.0, 3.0, 4.0]
    assert tracker.value() == 4.0
    with pytest.raises(ValueError):
        ListSlidingWindowPercentile().observe(float("nan"))


def test_estimator_rejects_nan_and_keeps_its_rows():
    estimator = ExecutionTimeEstimator(window=4, percentile=100)
    estimator.observe("w", 2.0, 0.5)
    row = estimator.mu_rows((1.0, 2.0))["w"]
    with pytest.raises(ValueError):
        estimator.observe("w", 2.0, float("nan"))
    with pytest.raises(ValueError):
        estimator.prime("w", 1.0, float("nan"), count=3)
    assert row == [0.0, 0.5]
    assert estimator.estimate("w", 2.0) == 0.5
    assert estimator.observation_count("w", 2.0) == 1
    assert estimator.observation_count("w", 1.0) == 0


LADDERS = ((1.0, 2.0, 3.0, 4.0), (0.5, 2.0, 4.0))
mutation = st.one_of(
    st.tuples(st.just("observe"), st.sampled_from("ab"),
              st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
              st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.0])),
    st.tuples(st.just("prime"), st.sampled_from("ab"),
              st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
              st.sampled_from([0.0, 1.0, 2.0, 3.0]),
              st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("fill"), st.sampled_from("ab"),
              st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
              st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), max_size=5)),
    # A row first built mid-sequence, over trackers that already exist.
    st.tuples(st.just("build"), st.sampled_from("ab"),
              st.sampled_from(LADDERS)),
)


@settings(max_examples=200, deadline=None)
@given(operations=st.lists(mutation, max_size=60),
       window=st.integers(min_value=1, max_value=4),
       percentile=st.sampled_from([50.0, 95.0, 100.0]))
def test_property_rows_are_never_stale(operations, window, percentile):
    """An unpublished observation must be one that moved nothing: after
    every operation each row equals ``estimate`` slot for slot, and the
    table's ``rising`` count equals a recount of its rows."""
    estimator = ExecutionTimeEstimator(window, percentile)
    for op in operations:
        if op[0] == "build":
            estimator.mu_rows(op[2])[op[1]]
        else:
            getattr(estimator, op[0])(*op[1:])
        for freqs in LADDERS:
            table = estimator.mu_rows(freqs)
            for name, row in table.items():
                assert row == [estimator.estimate(name, f) for f in freqs]
            assert table.rising == sum(
                row[j] < row[j + 1]
                for row in table.values() for j in range(len(row) - 2))
