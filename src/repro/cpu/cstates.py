"""ACPI C-state (idle state) model.

POLARIS manages only P-states; C-state transitions are made by the CPU
itself (paper Section 2).  The reproduction models the idle ladder so
that (a) the default configuration matches the paper's observation that
at transactional load levels cores rarely idle long enough to benefit
from deep sleep (Section 7.2, refs [37, 38]), and (b) the future-work
direction of parking workers into deep C-states (Section 8) can be
explored with the ablation benches.

Model: an idle interval of length ``d`` is split across the ladder ---
the core spends ``threshold_i`` seconds in each state before demoting to
the next deeper one, and pays the ``wake_latency_s`` of the deepest state
reached before it can execute again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class CState:
    """One idle state of the ladder.

    ``power_fraction`` scales the operating point's C1 idle power: C1 is
    1.0 by definition; deeper states shed progressively more.
    ``demotion_after`` is how long the core lingers here before moving
    one state deeper (``None`` for the terminal state), and
    ``wake_latency_s`` is the time to return to C0 from this state.
    """

    name: str
    power_fraction: float
    demotion_after: float  # seconds; use math.inf for the terminal state
    wake_latency_s: float  # seconds


#: Shallow default: the core clock-gates in C1 and stays there.  Wake
#: latency on this part is ~1-2 us; negligible against 60 us - 8 ms
#: transactions, so the default rounds it to zero to keep the main
#: experiments exactly comparable with the paper's P-state-only focus.
C1_ONLY = (CState("C1", 1.0, float("inf"), 0.0),)

#: A deeper ladder (latencies per Schoene et al. [45]) for the C-state
#: ablation bench.  Power fractions are relative to C1 idle power.
DEEP_LADDER = (
    CState("C1", 1.00, 50e-6, 2e-6),
    CState("C3", 0.55, 500e-6, 50e-6),
    CState("C6", 0.15, float("inf"), 133e-6),
)


class CStateModel:
    """Computes energy and wake latency for idle intervals."""

    def __init__(self, ladder: Sequence[CState] = C1_ONLY):
        if not ladder:
            raise ValueError("C-state ladder cannot be empty")
        if any(s.demotion_after <= 0 for s in ladder[:-1]):
            raise ValueError("non-terminal demotion thresholds must be positive")
        self.ladder: Tuple[CState, ...] = tuple(ladder)
        #: A single-state ladder (the default C1-only one) idles in one
        #: segment, so energy and wake latency collapse to a multiply and
        #: a constant: that state's power fraction, else ``None``.
        self.single_state_fraction: Optional[float] = \
            self.ladder[0].power_fraction if len(self.ladder) == 1 else None
        self._c1_wake = self.ladder[0].wake_latency_s

    def segments(self, duration_s: float) -> List[Tuple[CState, float]]:
        """Split an idle interval into (state, residency) segments."""
        if duration_s < 0:
            raise ValueError("idle duration cannot be negative")
        segments: List[Tuple[CState, float]] = []
        remaining_s = duration_s
        for state in self.ladder:
            residency = min(remaining_s, state.demotion_after)
            if residency > 0:
                segments.append((state, residency))
                remaining_s -= residency
            if remaining_s <= 0:
                break
        return segments

    def idle_energy(self, c1_idle_watts: float, duration_s: float) -> float:
        """Energy consumed over an idle interval of ``duration_s``.

        ``c1_idle_watts`` is the operating point's C1 idle power from the
        :class:`~repro.cpu.power.CorePowerModel`.
        """
        fraction = self.single_state_fraction
        if fraction is not None:
            if duration_s < 0:
                raise ValueError("idle duration cannot be negative")
            if duration_s <= 0:
                return 0.0
            # Single segment: the sum below would be exactly this product.
            return c1_idle_watts * fraction * duration_s
        return sum(c1_idle_watts * state.power_fraction * residency
                   for state, residency in self.segments(duration_s))

    def wake_latency(self, duration_s: float) -> float:
        """Wake latency paid after idling for ``duration_s`` seconds."""
        if self.single_state_fraction is not None:
            if duration_s < 0:
                raise ValueError("idle duration cannot be negative")
            return self._c1_wake if duration_s > 0 else 0.0
        segments = self.segments(duration_s)
        if not segments:
            return 0.0
        deepest = segments[-1][0]
        return deepest.wake_latency_s
