"""Worker request queues: FIFO and EDF disciplines."""

from hypothesis import given, settings, strategies as st

from repro.core.request import Request
from repro.core.workload import Workload
from repro.db.queues import EdfQueue, FifoQueue


def make_request(arrival, target=1.0):
    return Request(Workload("w", target), "t", arrival, work=1.0)


def test_fifo_order():
    queue = FifoQueue()
    first = make_request(0.0, target=9.0)   # late deadline
    second = make_request(1.0, target=0.1)  # early deadline
    queue.push(first)
    queue.push(second)
    assert queue.peek() is first
    assert queue.pop() is first
    assert queue.pop() is second
    assert queue.pop() is None
    assert queue.peek() is None


def test_edf_orders_by_deadline():
    queue = EdfQueue()
    late = make_request(0.0, target=10.0)
    early = make_request(1.0, target=0.5)
    middle = make_request(0.5, target=3.0)
    for request in (late, early, middle):
        queue.push(request)
    assert [queue.pop() for _ in range(3)] == [early, middle, late]


def test_edf_iteration_is_edf_order():
    queue = EdfQueue()
    requests = [make_request(float(i), target=10.0 - i) for i in range(5)]
    for request in requests:
        queue.push(request)
    deadlines = [r.deadline for r in queue]
    assert deadlines == sorted(deadlines)


def test_edf_ties_broken_by_arrival_id():
    queue = EdfQueue()
    a = make_request(0.0, target=5.0)
    b = make_request(0.0, target=5.0)  # same deadline, created later
    queue.push(b)
    queue.push(a)
    assert queue.pop() is a  # lower request id wins on equal deadline
    assert queue.pop() is b


def test_lengths():
    for queue in (FifoQueue(), EdfQueue()):
        assert len(queue) == 0
        queue.push(make_request(0.0))
        queue.push(make_request(1.0))
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.floats(min_value=0.01, max_value=100,
                                    allow_nan=False)),
                min_size=1, max_size=40))
def test_property_edf_pop_sequence_sorted(params):
    queue = EdfQueue()
    requests = [make_request(arrival, target) for arrival, target in params]
    for request in requests:
        queue.push(request)
    popped = []
    while len(queue):
        popped.append(queue.pop())
    keys = [(r.deadline, r.request_id) for r in popped]
    assert keys == sorted(keys)
    assert len(popped) == len(requests)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                min_size=1, max_size=30))
def test_property_fifo_preserves_arrival_sequence(arrivals):
    queue = FifoQueue()
    requests = [make_request(a) for a in arrivals]
    for request in requests:
        queue.push(request)
    assert queue.pending() == requests
    assert [queue.pop() for _ in requests] == requests


class NaiveEdfOracle:
    """The pre-head-pointer EdfQueue: two parallel sorted lists with
    ``pop(0)``.  Kept as the executable specification the optimized
    queue is checked against."""

    def __init__(self):
        self._keys = []
        self._items = []

    def push(self, request):
        import bisect
        key = (request.deadline, request.request_id)
        idx = bisect.bisect_left(self._keys, key)
        self._keys.insert(idx, key)
        self._items.insert(idx, request)

    def pop(self):
        if not self._items:
            return None
        self._keys.pop(0)
        return self._items.pop(0)

    def peek(self):
        return self._items[0] if self._items else None

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


@settings(max_examples=120, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.floats(min_value=0, max_value=50, allow_nan=False),
                  st.floats(min_value=0.01, max_value=50,
                            allow_nan=False)),
        st.tuples(st.just("pop"), st.just(0.0), st.just(0.0))),
    min_size=1, max_size=200))
def test_property_edf_equivalent_to_naive_oracle(ops):
    """The head-pointer queue is operation-for-operation identical to
    the naive two-list implementation under any interleaving of pushes
    and pops: same pop results (identity, not just deadline), same
    lengths, same peeks, same iteration order and pending view."""
    fast, oracle = EdfQueue(), NaiveEdfOracle()
    for op, arrival, target in ops:
        if op == "push":
            request = make_request(arrival, target)
            fast.push(request)
            oracle.push(request)
        else:
            assert fast.pop() is oracle.pop()
        assert len(fast) == len(oracle)
        assert fast.peek() is oracle.peek()
        assert list(fast) == list(oracle)
        assert fast.pending() == oracle._items


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                min_size=1, max_size=30))
def test_property_edf_is_fifo_among_equal_deadlines(arrivals):
    """With one shared deadline EDF degenerates to FIFO: the
    ``(deadline, request_id)`` key makes arrival order the tiebreak."""
    queue = EdfQueue()
    requests = []
    for arrival in arrivals:
        request = Request(Workload("w", 1000.0), "t", arrival, work=1.0)
        request.deadline = 42.0
        requests.append(request)
        queue.push(request)
    assert [queue.pop() for _ in requests] == requests


def test_edf_head_pointer_compaction_crosses_threshold():
    """Drive the queue far past the compaction threshold with live
    entries still behind the head: order survives, lengths stay true,
    and the backing array actually shrinks."""
    queue = EdfQueue()
    total = EdfQueue._COMPACT_MIN * 4
    requests = [make_request(float(i), target=1000.0)
                for i in range(total)]
    for request in requests:
        queue.push(request)
    popped = [queue.pop() for _ in range(total - 5)]
    assert popped == requests[:total - 5]
    assert len(queue) == 5
    # The dead prefix was reclaimed (without compaction the backing
    # list would still hold all `total` slots).
    assert len(queue._items) < total
    assert queue.pending() == requests[total - 5:]
    urgent = make_request(0.0, target=0.0001)  # earliest deadline now
    queue.push(urgent)
    assert queue.pop() is urgent
    assert [queue.pop() for _ in range(5)] == requests[total - 5:]
    assert queue.pop() is None
