"""Transaction types, service-time models, and benchmark specs.

Service-time calibration
------------------------
The paper's Figure 3 gives, per TPC-C transaction type, the mean and
95th-percentile execution time at the maximum (2.8 GHz) and minimum
(1.2 GHz) frequencies.  Two observations drive the model here:

1. The 1.2 GHz times are almost exactly ``2.8/1.2 = 2.33x`` the 2.8 GHz
   times (NewOrder 2.32x, Payment 2.44x, StockLevel 2.35x), i.e. these
   transactions are CPU-bound and execution time scales as ``1/f``.
   We therefore draw a *work* amount ``w`` in giga-cycles per
   transaction; at frequency ``f`` GHz it runs for ``w / f`` seconds.
2. The tails are heavy: P95 is 2.5--4.8x the mean.  A lognormal fitted
   to (mean, P95) captures most types.  Order Status has P95 = 6.7x its
   mean, beyond what any lognormal can produce (the ratio is capped at
   ``exp(z95^2 / 2) ~ 3.87``); for such types we use a two-component
   model --- a lognormal body plus a rare "long" execution spike (a
   customer with many order lines) --- solved so both the mean and the
   P95 match the paper's numbers.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from math import exp, log
from random import NV_MAGICCONST
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: z-score of the 95th percentile of the standard normal.
Z95 = 1.6448536269514722

#: Maximum P95/mean ratio a lognormal can express.
MAX_LOGNORMAL_RATIO = math.exp(Z95 ** 2 / 2.0)

#: The frequency the calibrated execution times were measured at (GHz):
#: the paper's maximum.
REF_FREQ_GHZ = 2.8


def fit_lognormal(mean: float, p95: float) -> Tuple[float, float]:
    """Return ``(mu, sigma)`` of the lognormal with the given mean and P95.

    Solves ``exp(mu + sigma^2/2) = mean`` and
    ``exp(mu + z95*sigma) = p95``; raises ``ValueError`` when the ratio
    ``p95/mean`` exceeds what a lognormal can produce.
    """
    if mean <= 0 or p95 <= 0:
        raise ValueError("mean and p95 must be positive")
    ratio = p95 / mean
    if ratio < 1.0:
        raise ValueError(f"p95 ({p95}) below mean ({mean})")
    discriminant = Z95 ** 2 - 2.0 * math.log(ratio)
    if discriminant < 0:
        raise ValueError(
            f"p95/mean ratio {ratio:.2f} exceeds lognormal maximum "
            f"{MAX_LOGNORMAL_RATIO:.2f}")
    sigma = Z95 - math.sqrt(discriminant)
    mu = math.log(mean) - sigma ** 2 / 2.0
    return mu, sigma


class ServiceTimeModel:
    """Draws per-transaction work (giga-cycles) matching (mean, P95).

    ``mean_seconds`` / ``p95_seconds`` are execution times at the
    reference frequency ``REF_FREQ_GHZ``.  :meth:`draw_work` returns
    work in giga-cycles such that running it at frequency ``f`` GHz
    takes ``work / f`` seconds.
    """

    #: Probability of the "long execution" component when the lognormal
    #: cannot reach the requested tail ratio.
    SPIKE_PROBABILITY = 0.08
    #: Relative jitter applied to the spike duration.
    SPIKE_JITTER = 0.10
    #: Sigma of the lognormal body in spike mode.
    BODY_SIGMA = 0.45

    def __init__(self, mean_seconds: float, p95_seconds: float):
        if mean_seconds <= 0 or p95_seconds < mean_seconds:
            raise ValueError("need 0 < mean <= p95")
        self.mean_seconds = mean_seconds
        self.p95_seconds = p95_seconds
        try:
            self._mu, self._sigma = fit_lognormal(mean_seconds, p95_seconds)
            self._spike_seconds: Optional[float] = None
            self._body_mu: Optional[float] = None
        except ValueError:
            # Two-component model: body lognormal + rare long execution.
            q = self.SPIKE_PROBABILITY
            self._spike_seconds = p95_seconds
            body_mean = (mean_seconds - q * p95_seconds) / (1.0 - q)
            if body_mean <= 0:
                raise ValueError(
                    f"infeasible (mean={mean_seconds}, p95={p95_seconds})")
            self._body_mu = math.log(body_mean) - self.BODY_SIGMA ** 2 / 2.0
            self._mu = self._sigma = None  # type: ignore[assignment]

    def draw_seconds(self, rng: random.Random) -> float:
        """Sample an execution time at the reference frequency.

        Hot path: one draw per offered request.  The lognormal is
        ``rng.lognormvariate(mu, sigma)`` computed in this frame: the
        standard library's Kinderman--Monahan loop, with its arithmetic
        and its ``rng.random()`` calls in the same order, so every float
        and the stream's state after the draw are the library's own
        (``tests/test_workloads_base.py`` holds the two draw for draw).
        """
        random = rng.random
        mu = self._mu
        if mu is None:
            if random() < self.SPIKE_PROBABILITY:
                jitter = 1.0 + self.SPIKE_JITTER * (2.0 * random() - 1.0)
                return self._spike_seconds * jitter
            mu, sigma = self._body_mu, self.BODY_SIGMA
        else:
            sigma = self._sigma
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            zz = z * z / 4.0
            if zz <= -log(u2):
                return exp(mu + z * sigma)

    def draw_work(self, rng: random.Random) -> float:
        """Sample the transaction's work in giga-cycles."""
        return self.draw_seconds(rng) * REF_FREQ_GHZ


@dataclass
class TransactionType:
    """One request type of a benchmark.

    ``mix_weight`` is its share of the benchmark mix (weights need not
    sum to 1; the spec normalizes).
    """

    name: str
    mix_weight: float
    service: ServiceTimeModel

    def __post_init__(self):
        if self.mix_weight < 0:
            raise ValueError("mix weight cannot be negative")


class BenchmarkSpec:
    """A benchmark: a set of transaction types with a mix.

    >>> spec = BenchmarkSpec("toy", [
    ...     TransactionType("a", 0.5, ServiceTimeModel(1e-3, 2e-3)),
    ...     TransactionType("b", 0.5, ServiceTimeModel(2e-3, 4e-3))])
    >>> round(spec.combined_mean_seconds(), 6)
    0.0015
    """

    def __init__(self, name: str, types: Sequence[TransactionType]):
        if not types:
            raise ValueError("benchmark needs at least one type")
        total = sum(t.mix_weight for t in types)
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.name = name
        self.types: Tuple[TransactionType, ...] = tuple(types)
        self._cumulative: List[float] = []
        acc = 0.0
        for txn_type in self.types:
            acc += txn_type.mix_weight / total
            self._cumulative.append(acc)
        self._by_name = {t.name: t for t in self.types}

    def type_named(self, name: str) -> TransactionType:
        return self._by_name[name]

    def choose_type(self, rng: random.Random) -> TransactionType:
        """Draw a type according to the mix.

        ``bisect_left`` finds the first cumulative edge >= u, which is
        exactly the first type the original linear walk would accept
        (``u <= edge``); the clamp covers a draw beyond the last edge
        when the edges sum slightly under 1.0.
        """
        u = rng.random()
        index = bisect_left(self._cumulative, u)
        types = self.types
        return types[index] if index < len(types) else types[-1]

    def mix_fraction(self, name: str) -> float:
        total = sum(t.mix_weight for t in self.types)
        return self._by_name[name].mix_weight / total

    def combined_mean_seconds(self) -> float:
        """Mix-weighted mean execution time at the reference frequency."""
        return sum(self.mix_fraction(t.name) * t.service.mean_seconds
                   for t in self.types)

    def peak_throughput(self, workers: int) -> float:
        """Saturation throughput (txn/s) of ``workers`` single-core workers.

        The paper expresses its load levels as fractions of the
        measured peak (Section 6.1); the reproduction derives peak from
        the service-time model the same way.
        """
        return workers / self.combined_mean_seconds()
