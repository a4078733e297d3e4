"""Named random streams: determinism, independence, batching."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import BatchedStream, RandomStreams, derive_seed


def test_same_seed_same_streams():
    a = RandomStreams(7).get("arrivals")
    b = RandomStreams(7).get("arrivals")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_differ():
    streams = RandomStreams(7)
    a = streams.get("arrivals")
    b = streams.get("service")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_differ():
    a = RandomStreams(7).get("x")
    b = RandomStreams(8).get("x")
    assert a.random() != b.random()


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams.get("s") is streams.get("s")


def test_draw_order_isolation():
    """Consuming one stream must not perturb another."""
    streams_a = RandomStreams(3)
    streams_b = RandomStreams(3)
    # In A, interleave heavy use of "other" before sampling "target".
    other = streams_a.get("other")
    for _ in range(1000):
        other.random()
    target_a = [streams_a.get("target").random() for _ in range(5)]
    target_b = [streams_b.get("target").random() for _ in range(5)]
    assert target_a == target_b


def test_derive_seed_stable():
    assert derive_seed(42, "abc") == derive_seed(42, "abc")
    assert derive_seed(42, "abc") != derive_seed(42, "abd")
    assert derive_seed(41, "abc") != derive_seed(42, "abc")


def test_names_sorted():
    streams = RandomStreams(0)
    streams.get("zeta")
    streams.get("alpha")
    assert streams.names() == ["alpha", "zeta"]


# ----------------------------------------------------------------------
# BatchedStream: bit-identity with random.Random
# ----------------------------------------------------------------------
def test_batched_random_bit_identical_across_blocks():
    """The core batching contract: random() serves exactly the plain
    sequence, including across multiple block refills."""
    n = 3 * BatchedStream.BLOCK_SIZE + 17
    plain = random.Random(1234)
    batched = BatchedStream(1234)
    assert [batched.random() for _ in range(n)] \
        == [plain.random() for _ in range(n)]


def test_batched_distribution_methods_bit_identical():
    plain = random.Random(99)
    batched = BatchedStream(99)
    for _ in range(2000):
        assert batched.uniform(-3.0, 7.0) == plain.uniform(-3.0, 7.0)
        assert batched.lognormvariate(0.5, 0.8) \
            == plain.lognormvariate(0.5, 0.8)
        assert batched.expovariate(2.0) == plain.expovariate(2.0)


@given(st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=1, max_value=300))
def test_batched_interleaving_preserves_sequence(seed, n):
    """Any interleaving of random()/uniform() draws matches plain."""
    plain = random.Random(seed)
    batched = BatchedStream(seed)
    mixer = random.Random(n)
    for _ in range(n):
        if mixer.random() < 0.5:
            assert batched.random() == plain.random()
        else:
            assert batched.uniform(0.0, 2.5) == plain.uniform(0.0, 2.5)


def test_batched_getrandbits_family_fails_loudly():
    batched = BatchedStream(7)
    with pytest.raises(TypeError):
        batched.getrandbits(8)
    with pytest.raises(TypeError):
        batched.randrange(10)
    with pytest.raises(TypeError):
        batched.randint(0, 5)
    with pytest.raises(TypeError):
        batched.choice([1, 2, 3])
    with pytest.raises(TypeError):
        batched.shuffle([1, 2, 3])
    with pytest.raises(TypeError):
        batched.sample([1, 2, 3], 2)
    with pytest.raises(TypeError):
        batched.randbytes(4)


def test_batched_reseed_and_state_rejected():
    batched = BatchedStream(7)
    with pytest.raises(TypeError):
        batched.seed(8)
    with pytest.raises(TypeError):
        batched.getstate()
    with pytest.raises(TypeError):
        batched.setstate(random.Random(7).getstate())


def test_get_batched_caches_and_guards_promotion():
    streams = RandomStreams(5)
    batched = streams.get_batched("arrivals")
    assert streams.get_batched("arrivals") is batched
    # Promoting an existing plain stream would fork the sequence.
    streams.get("plain")
    with pytest.raises(ValueError):
        streams.get_batched("plain")


def test_get_rejects_existing_batched_stream():
    # The mirror guard: get() used to hand the BatchedStream out as if
    # it were a full random.Random, and the first forking call
    # (randrange, choice, ...) then raised TypeError far from the
    # aliasing site.  Both directions of the batched/plain mismatch now
    # fail at the registry, where the stream name is in hand.
    streams = RandomStreams(5)
    streams.get_batched("arrivals")
    with pytest.raises(ValueError, match="already exists batched"):
        streams.get("arrivals")


def test_get_batched_serves_same_sequence_as_get():
    a = RandomStreams(11).get("s")
    b = RandomStreams(11).get_batched("s")
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]
