"""Model-specific register (MSR) file.

The POLARIS prototype bypasses the ``cpufreq`` userspace governor and
writes frequency targets straight into the per-core MSRs via the Linux
MSR driver, because the sysfs path adds too much latency (paper
Section 5, citing Wamhoff et al.).  This module reproduces that
interface: a per-core register file where writing ``IA32_PERF_CTL``
changes the core's P-state and reading ``MSR_PKG_ENERGY_STATUS``
returns the RAPL energy accumulator.

Register encodings follow the Intel SDM conventions the real driver
uses:

* ``IA32_PERF_CTL`` bits 15:8 hold the target ratio in units of the bus
  clock (100 MHz), i.e. ratio 28 = 2.8 GHz.
* ``MSR_PKG_ENERGY_STATUS`` is a 32-bit wrapping counter in energy
  units of ``1 / 2**ESU`` joules, with ESU read from
  ``MSR_RAPL_POWER_UNIT`` bits 12:8 (default 16 -> ~15.3 uJ).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

IA32_PERF_STATUS = 0x198
IA32_PERF_CTL = 0x199
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_ENERGY_STATUS = 0x611

_BUS_CLOCK_GHZ = 0.1  # 100 MHz reference clock
_DEFAULT_ESU = 16     # energy status unit exponent: 2^-16 J per count


class MsrError(RuntimeError):
    """Raised on access to an unsupported register or invalid encoding."""


def encode_perf_ctl(freq_ghz: float) -> int:
    """Encode a frequency as an IA32_PERF_CTL value (ratio in bits 15:8)."""
    ratio = round(freq_ghz / _BUS_CLOCK_GHZ)
    if not 1 <= ratio <= 0xFF:
        raise MsrError(f"frequency {freq_ghz} GHz out of encodable range")
    return ratio << 8


#: The bits of IA32_PERF_CTL this model implements: the target ratio in
#: 15:8.  Everything else is reserved here (the SDM's IDA-disengage bit
#: 32 included) and a write setting any of them is rejected rather than
#: silently decoded into a nonsense frequency.
_PERF_CTL_RATIO_MASK = 0xFF00


def decode_perf_ctl(value: int) -> float:
    """Decode an IA32_PERF_CTL value back to GHz.

    Rejects malformed encodings with :class:`MsrError`: negative or
    oversized values, set reserved bits, and the ratio-0 encoding all
    indicate a corrupted write, not a slow P-state.
    """
    if value < 0 or value & ~_PERF_CTL_RATIO_MASK:
        raise MsrError(
            f"PERF_CTL value {value:#x} sets bits outside the "
            f"target-ratio field (15:8)")
    ratio = (value >> 8) & 0xFF
    if ratio == 0:
        raise MsrError(f"PERF_CTL value {value:#x} encodes ratio 0")
    return round(ratio * _BUS_CLOCK_GHZ, 1)


class MsrFile:
    """Per-core MSR access, wired to a :class:`~repro.cpu.core.Core`.

    ``rapl`` is optional; when provided, energy-status reads are served
    from it (package-level, so all cores of a package return the same
    counter, as on real hardware).
    """

    def __init__(self, core, rapl: Optional["object"] = None,
                 esu_exponent: int = _DEFAULT_ESU):
        self.core = core
        self.rapl = rapl
        self.esu_exponent = esu_exponent
        self._scratch: Dict[int, int] = {}
        #: repro.faults seam: when set, consulted per PERF_CTL write.
        #: Returning ``"error"`` makes the write raise :class:`MsrError`
        #: (the driver's -EIO path); ``"stuck"`` silently drops it (the
        #: firmware ate the write and the core keeps its P-state);
        #: ``None`` lets it through.  Unset outside fault experiments.
        self.fault_hook: Optional[Callable[[int, int],
                                           Optional[str]]] = None

    # ------------------------------------------------------------------
    def write(self, address: int, value: int) -> None:
        """``wrmsr``: only PERF_CTL is writable in this model.

        The encoding is validated *before* the fault hook runs: a
        malformed value is a caller bug and always raises, while an
        injected failure only affects well-formed writes.  A decoded
        frequency outside the core's P-state table is likewise an
        :class:`MsrError` --- real silicon clamps unsupported ratios,
        but in a simulation a mis-targeted frequency means a bug
        upstream, so it is surfaced instead of decoded into nonsense.
        """
        if address == IA32_PERF_CTL:
            freq_ghz = decode_perf_ctl(value)
            if freq_ghz not in self.core.pstates:
                raise MsrError(
                    f"PERF_CTL ratio encodes {freq_ghz} GHz, not a "
                    f"P-state of core {self.core.core_id}")
            if self.fault_hook is not None:
                action = self.fault_hook(address, value)
                if action == "error":
                    raise MsrError(
                        f"injected DVFS write failure on core "
                        f"{self.core.core_id}")
                if action == "stuck":
                    return  # write silently dropped; P-state unchanged
            # One PERF_CTL per frequency domain: on shared-domain
            # topologies this files the core's vote and the domain
            # resolves max-of-votes across members; per-core it is a
            # direct register write, exactly as before.
            self.core.request_frequency(freq_ghz)
            self._scratch[address] = value
        else:
            raise MsrError(f"write to unsupported MSR {address:#x}")

    def read(self, address: int) -> int:
        """``rdmsr`` for the registers the prototype touches."""
        if address == IA32_PERF_STATUS or address == IA32_PERF_CTL:
            return encode_perf_ctl(self.core.freq)
        if address == MSR_RAPL_POWER_UNIT:
            return self.esu_exponent << 8
        if address == MSR_PKG_ENERGY_STATUS:
            if self.rapl is None:
                raise MsrError("no RAPL package attached to this core")
            joules = self.rapl.energy_joules(self.core.sim.now)
            counts = int(joules * (1 << self.esu_exponent))
            return counts & 0xFFFFFFFF  # 32-bit wrapping counter
        raise MsrError(f"read of unsupported MSR {address:#x}")
