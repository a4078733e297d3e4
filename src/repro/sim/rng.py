"""Named, independently seeded random streams.

Every stochastic component of the reproduction (request interarrival
times, transaction service-time draws, power-meter reading noise, trace
synthesis, ...) pulls from its own named stream, a plain
``random.Random`` seeded from ``(master seed, name)``.  This gives two
properties the experiments rely on:

* **Reproducibility** --- a run is fully determined by one master seed.
* **Variance isolation** --- changing, say, the number of meter samples
  does not perturb the arrival process, so paired comparisons between
  schemes (POLARIS vs. OnDemand under *the same* arrivals) are exact.
"""

from __future__ import annotations

import random
from typing import Dict

try:  # CPython's own SHA-256, so a run need not load OpenSSL (hashlib)
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, name)``.

    Uses SHA-256 rather than ``hash()`` so the derivation is stable
    across interpreter runs and PYTHONHASHSEED settings.
    """
    digest = sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


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
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    # The ledger's micro-benchmarks (bench/micro.py) still ask for
    # streams by this name.
    get_batched = get

    def names(self):
        """Names of streams created so far (sorted, for diagnostics)."""
        return sorted(self._streams)
