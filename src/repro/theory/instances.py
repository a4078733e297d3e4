"""Problem-instance generators for the Section 4 analysis.

* :func:`random_instance` --- arbitrary instances: uniform arrivals,
  lognormal-ish loads, uniform laxities.
* :func:`random_agreeable_instance` --- agreeable instances (earlier
  arrival implies no-later deadline), the class on which Theorem 4.3
  shows POLARIS behaves identically to OA.
* :func:`adversarial_pair` --- the Section 4.6 two-job construction
  exhibiting POLARIS's non-preemption penalty: a maximum-load job with
  a late deadline arrives just before a minimum-load job with a very
  tight deadline, forcing non-preemptive POLARIS to push *both* loads
  through the tight deadline.
"""

from __future__ import annotations

import random
from typing import List

from repro.theory.model import Job, ProblemInstance

#: The random instances' fixed distribution: arrivals uniform on
#: [0, HORIZON), loads on [MIN_WORK, MAX_WORK], deadlines a laxity on
#: [MIN_LAXITY, MAX_LAXITY] after the arrival.
HORIZON = 100.0
MIN_WORK, MAX_WORK = 0.5, 5.0
MIN_LAXITY, MAX_LAXITY = 1.0, 20.0

#: The Section 4.6 pair: loads, job 2's window, job 1's deadline and
#: job 2's arrival.
W_MAX, W_MIN = 10.0, 0.1
TIGHT_WINDOW = 1.0
LATE_DEADLINE = 1000.0
EPSILON = 1e-3


def random_instance(n: int, rng: random.Random) -> ProblemInstance:
    """Arbitrary instance: n jobs with independent windows and loads."""
    if n < 1:
        raise ValueError("need at least one job")
    jobs: List[Job] = []
    for job_id in range(1, n + 1):
        arrival = rng.uniform(0.0, HORIZON)
        work = rng.uniform(MIN_WORK, MAX_WORK)
        laxity = rng.uniform(MIN_LAXITY, MAX_LAXITY)
        jobs.append(Job(job_id, arrival, arrival + laxity, work))
    return ProblemInstance(jobs)


def random_agreeable_instance(n: int,
                              rng: random.Random) -> ProblemInstance:
    """Agreeable instance: deadlines ordered like arrivals.

    Arrivals are sorted and deadlines made monotone by running-max (plus
    a small separator so the ordering is strict), which preserves
    agreeability under any pairing of arrivals.
    """
    arrivals = sorted(rng.uniform(0.0, HORIZON) for _ in range(n))
    jobs: List[Job] = []
    floor_deadline = -float("inf")
    for job_id, arrival in enumerate(arrivals, start=1):
        work = rng.uniform(MIN_WORK, MAX_WORK)
        deadline = arrival + rng.uniform(MIN_LAXITY, MAX_LAXITY)
        deadline = max(deadline, floor_deadline + 1e-6)
        floor_deadline = deadline
        jobs.append(Job(job_id, arrival, deadline, work))
    instance = ProblemInstance(jobs)
    assert instance.is_agreeable()
    return instance


def adversarial_pair() -> ProblemInstance:
    """The Section 4.6 construction.

    Job 1: load ``W_MAX``, arrives at 0, deadline ``LATE_DEADLINE``.
    Job 2: load ``W_MIN``, arrives at ``EPSILON``, deadline
    ``EPSILON + TIGHT_WINDOW``.

    Non-preemptive POLARIS is already running job 1 when job 2 arrives,
    so it must complete *both* loads by job 2's deadline; YDS runs job 2
    alone in the tight window and spreads job 1 over the long horizon.
    The energy ratio approaches ``c^alpha`` with
    ``c = 1 + W_MAX / W_MIN``.
    """
    return ProblemInstance([
        Job(1, 0.0, LATE_DEADLINE, W_MAX),
        Job(2, EPSILON, EPSILON + TIGHT_WINDOW, W_MIN),
    ])
