"""ACPI P-state tables.

A P-state is a (frequency, voltage) operating point; P0 is the fastest
and most power-hungry (Section 2 of the paper).  The paper's testbed CPU
(Xeon E5-2640 v3) exposes "15 frequency levels from 1.2 GHz to 2.6 GHz
with 0.1 GHz steps, plus 2.8 GHz"; POLARIS itself uses the five-level
subset {1.2, 1.6, 2.0, 2.4, 2.8} GHz while the kernel governors may use
the full grid.  Both tables are provided here.

Voltages follow the near-affine V/f relation typical of this part
(used only by the power model; POLARIS never sees voltage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class PState:
    """One ACPI P-state: an immutable (frequency, voltage) pair."""

    freq_ghz: float
    voltage: float

    def __post_init__(self):
        if self.freq_ghz <= 0:
            raise ValueError(f"frequency must be positive, got {self.freq_ghz}")
        if self.voltage <= 0:
            raise ValueError(f"voltage must be positive, got {self.voltage}")


def _default_voltage(freq_ghz: float) -> float:
    """Near-affine V/f curve, ~0.78 V at 1.2 GHz up to ~1.02 V at 2.8 GHz."""
    return 0.6 + 0.15 * freq_ghz


class PStateTable:
    """Ordered collection of P-states, indexed from slowest to fastest.

    Note the index convention: ACPI numbers P0 as the *fastest* state,
    but for scheduling it is more convenient to iterate frequencies in
    increasing order (as POLARIS's SetProcessorFreq does), so this table
    stores states sorted ascending by frequency and exposes both views.
    """

    def __init__(self, states: Iterable[PState]):
        self._states: List[PState] = sorted(states, key=lambda s: s.freq_ghz)
        if not self._states:
            raise ValueError("P-state table cannot be empty")
        freqs = [s.freq_ghz for s in self._states]
        if len(set(freqs)) != len(freqs):
            raise ValueError(f"duplicate frequencies in P-state table: {freqs}")
        self._by_freq_ghz = {s.freq_ghz: s for s in self._states}

    # -- construction helpers -----------------------------------------
    @classmethod
    def from_frequencies(cls, freqs_ghz: Sequence[float]) -> "PStateTable":
        """Build a table with default voltages for the given frequencies."""
        return cls(PState(f, _default_voltage(f)) for f in freqs_ghz)

    def subset(self, freqs_ghz: Sequence[float]) -> "PStateTable":
        """Restrict to the given frequencies (must all exist in this table)."""
        missing = [f for f in freqs_ghz if f not in self._by_freq_ghz]
        if missing:
            raise ValueError(f"frequencies not in table: {missing}")
        return PStateTable(self._by_freq_ghz[f] for f in freqs_ghz)

    # -- queries -------------------------------------------------------
    @property
    def frequencies(self) -> Tuple[float, ...]:
        """All frequencies in GHz, ascending."""
        return tuple(s.freq_ghz for s in self._states)

    @property
    def min_freq(self) -> float:
        return self._states[0].freq_ghz

    @property
    def max_freq(self) -> float:
        return self._states[-1].freq_ghz

    def __contains__(self, freq_ghz: float) -> bool:
        return freq_ghz in self._by_freq_ghz

    def in_bounds(self, freq_ghz: float) -> bool:
        """Whether ``freq_ghz`` lies within the table's [min, max] range.

        Weaker than membership (``in``): used by the simsan frequency
        check, where a tolerance keeps float round-trips from
        false-alarming at the exact endpoints.
        """
        return (self.min_freq - 1e-12 <= freq_ghz
                <= self.max_freq + 1e-12)

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return iter(self._states)

    def nearest_at_least(self, freq_ghz: float) -> float:
        """Smallest table frequency >= ``freq_ghz`` (max frequency if none).

        This is how the Linux ``ondemand`` governor maps its computed
        target frequency onto the hardware grid (relation ``CPUFREQ_RELATION_L``).
        """
        for state in self._states:
            if state.freq_ghz >= freq_ghz - 1e-12:
                return state.freq_ghz
        return self.max_freq

    def nearest_at_most(self, freq_ghz: float) -> float:
        """Largest table frequency <= ``freq_ghz`` (min frequency if none).

        The downward counterpart of :meth:`nearest_at_least`
        (``CPUFREQ_RELATION_H``); used to honor thermal-throttle
        ceilings, which cap how fast a core may run.
        """
        for state in reversed(self._states):
            if state.freq_ghz <= freq_ghz + 1e-12:
                return state.freq_ghz
        return self.min_freq

    def step_down(self, freq_ghz: float, steps: int = 1) -> float:
        """Frequency ``steps`` levels below ``freq_ghz``, clamped to min."""
        idx = self._index_of(freq_ghz)
        return self._states[max(idx - steps, 0)].freq_ghz

    def state_label(self, freq_ghz: float) -> str:
        """ACPI name of the state at ``freq_ghz`` (``P0`` = fastest).

        The table stores states ascending by frequency while ACPI
        numbers them descending, hence the reversal.  Used by trace
        annotations so P-state transitions read the way the paper (and
        ``cpufreq``) name them.
        """
        return f"P{len(self._states) - 1 - self._index_of(freq_ghz)}"

    def _index_of(self, freq_ghz: float) -> int:
        for i, state in enumerate(self._states):
            if abs(state.freq_ghz - freq_ghz) < 1e-12:
                return i
        raise KeyError(f"{freq_ghz} GHz not in P-state table")


def _xeon_grid() -> List[float]:
    """1.2 .. 2.6 GHz in 0.1 steps (15 levels) plus the 2.8 GHz turbo level."""
    grid = [round(1.2 + 0.1 * i, 1) for i in range(15)]  # 1.2 .. 2.6
    grid.append(2.8)
    return grid


#: Full 16-level grid of the paper's testbed CPU.
XEON_E5_2640V3_PSTATES = PStateTable.from_frequencies(_xeon_grid())

#: The five-level subset the paper configures POLARIS with (Section 6.1).
POLARIS_FREQUENCIES = (1.2, 1.6, 2.0, 2.4, 2.8)
