"""Named, independently seeded random streams.

Every stochastic component of the reproduction (request interarrival
times, transaction service-time draws, power-meter reading noise, trace
synthesis, ...) pulls from its own named stream.  This gives two
properties the experiments rely on:

* **Reproducibility** --- a run is fully determined by one master seed.
* **Variance isolation** --- changing, say, the number of meter samples
  does not perturb the arrival process, so paired comparisons between
  schemes (POLARIS vs. OnDemand under *the same* arrivals) are exact.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, name)``.

    Uses SHA-256 rather than ``hash()`` so the derivation is stable
    across interpreter runs and PYTHONHASHSEED settings.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class BatchedStream(random.Random):
    """A ``random.Random`` that pre-draws blocks of ``random()`` values.

    The Mersenne Twister core produces floats cheaply; the per-call cost
    of a hot stream is dominated by method dispatch.  This subclass
    draws :data:`BLOCK_SIZE` floats at a time and serves them through an
    index bump, so a batched stream's ``random()`` is a list index in
    the common case.

    **Batching contract** --- the served sequence is *bit-identical* to
    the plain ``random.Random(seed)`` sequence, because blocks are
    filled from the inherited generator itself and every pure-Python
    distribution method (``uniform``, ``normalvariate``,
    ``lognormvariate``, ``expovariate``, ``choices``, ...) consumes
    entropy exclusively through ``self.random()``.  Methods that pull
    words straight from the core instead (``getrandbits``, and through
    it ``randrange``/``randint``/``choice``/``shuffle``/``sample``)
    would interleave with the pre-drawn blocks and silently fork the
    sequence, so they raise ``TypeError`` here: streams that need them
    (e.g. the tier-assignment stream) must stay unbatched.
    """

    #: Floats pre-drawn per refill.
    BLOCK_SIZE = 4096

    def __init__(self, seed: int):
        self._sealed = False
        self._block: list = []
        self._index = 0
        super().__init__(seed)
        self._draw = super().random
        self._sealed = True

    def random(self) -> float:
        index = self._index
        block = self._block
        if index >= len(block):
            draw = self._draw
            block[:] = [draw() for _ in range(self.BLOCK_SIZE)]
            index = 0
        self._index = index + 1
        return block[index]

    def uniform(self, a: float, b: float) -> float:
        # Identical arithmetic to random.Random.uniform, on the batch.
        return a + (b - a) * self.random()

    # -- hot distributions served straight off the block ----------------
    # These reimplement the CPython algorithms verbatim (same constants,
    # same arithmetic, same draw order) but read the pre-drawn block
    # in-line instead of paying a ``random()`` frame per uniform draw.
    # ``lognormvariate`` needs no override: the stdlib defines it as
    # ``exp(self.normalvariate(...))`` and picks ours up via ``self``.

    def normalvariate(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        # Kinderman-Monahan, exactly as random.Random.normalvariate.
        magic = random.NV_MAGICCONST
        log = math.log
        block = self._block
        index = self._index
        end = len(block)
        while True:
            if index >= end:
                draw = self._draw
                block[:] = [draw() for _ in range(self.BLOCK_SIZE)]
                end = len(block)
                index = 0
            u1 = block[index]
            index += 1
            if index >= end:
                draw = self._draw
                block[:] = [draw() for _ in range(self.BLOCK_SIZE)]
                end = len(block)
                index = 0
            u2 = 1.0 - block[index]
            index += 1
            z = magic * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        self._index = index
        return mu + z * sigma

    def expovariate(self, lambd: float) -> float:
        # Inverse-CDF, exactly as random.Random.expovariate.
        block = self._block
        index = self._index
        if index >= len(block):
            draw = self._draw
            block[:] = [draw() for _ in range(self.BLOCK_SIZE)]
            index = 0
        self._index = index + 1
        return -math.log(1.0 - block[index]) / lambd

    # -- sequence-forking APIs fail loudly ------------------------------
    def getrandbits(self, k: int) -> int:
        raise TypeError(
            "BatchedStream serves pre-drawn random() blocks; getrandbits "
            "(and randrange/randint/choice/shuffle/sample on top of it) "
            "would bypass them and fork the draw sequence -- use an "
            "unbatched stream")

    def seed(self, *args, **kwargs) -> None:
        if getattr(self, "_sealed", False):
            raise TypeError("cannot reseed a BatchedStream mid-stream")
        super().seed(*args, **kwargs)

    def getstate(self):
        raise TypeError("BatchedStream state spans a pre-drawn block; "
                        "get/setstate are unsupported")

    def setstate(self, state) -> None:
        raise TypeError("BatchedStream state spans a pre-drawn block; "
                        "get/setstate are unsupported")


class RandomStreams:
    """Registry handing out one ``random.Random`` per stream name.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("arrivals")
    >>> b = streams.get("service-times")
    >>> a is streams.get("arrivals")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        A stream created by :meth:`get_batched` stays batched: handing
        it out here would look like a full ``random.Random`` but raise
        ``TypeError`` on the first forking call (``randrange``,
        ``choice``, ...) far from this aliasing site, so the mismatch
        is rejected where it happens --- the mirror of the check in
        :meth:`get_batched`.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        elif isinstance(stream, BatchedStream):
            raise ValueError(
                f"stream {name!r} already exists batched; request it "
                f"with get_batched() (or use a distinct name for an "
                f"unbatched stream)")
        return stream

    def get_batched(self, name: str) -> BatchedStream:
        """Return the stream for ``name`` as a :class:`BatchedStream`.

        Serves the exact draw sequence ``get(name)`` would, just
        faster; a stream must be created batched *before* any plain
        :meth:`get` touches it (the two objects would otherwise race
        through one seed), so promoting an existing plain stream is an
        error.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = BatchedStream(derive_seed(self.seed, name))
            self._streams[name] = stream
        elif not isinstance(stream, BatchedStream):
            raise ValueError(
                f"stream {name!r} already exists unbatched; create it "
                f"with get_batched() before any get()")
        return stream

    def names(self):
        """Names of streams created so far (sorted, for diagnostics)."""
        return sorted(self._streams)
