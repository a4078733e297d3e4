"""Model-specific register (MSR) file.

The POLARIS prototype bypasses the ``cpufreq`` userspace governor and
writes frequency targets straight into the per-core MSRs via the Linux
MSR driver, because the sysfs path adds too much latency (paper
Section 5, citing Wamhoff et al.).  This module reproduces that
interface: a per-core register file where writing ``IA32_PERF_CTL``
changes the core's P-state.  POLARIS only writes; nothing in the run
reads a register back, so the model has no read side.

The encoding follows the Intel SDM convention the real driver uses:
``IA32_PERF_CTL`` bits 15:8 hold the target ratio in units of the bus
clock (100 MHz), i.e. ratio 28 = 2.8 GHz.
"""

from __future__ import annotations

from typing import Callable, Optional

IA32_PERF_CTL = 0x199

_BUS_CLOCK_GHZ = 0.1  # 100 MHz reference clock


class MsrError(RuntimeError):
    """Raised on access to an unsupported register or invalid encoding."""


class InjectedMsrError(MsrError):
    """A well-formed PERF_CTL write failed because the fault hook said
    so: the one :class:`MsrError` a worker survives (every other one is
    a bug upstream and propagates)."""


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
    """Per-core MSR access, wired to a :class:`~repro.cpu.core.Core`."""

    def __init__(self, core):
        self.core = core
        #: repro.faults seam: when set, consulted per PERF_CTL write.
        #: Returning ``"error"`` makes the write raise
        #: :class:`InjectedMsrError` (the driver's -EIO path);
        #: ``"stuck"`` silently drops it (the firmware ate the write and
        #: the core keeps its P-state); ``None`` lets it through.  Unset
        #: outside fault experiments.
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
                    raise InjectedMsrError(
                        f"injected DVFS write failure on core "
                        f"{self.core.core_id}")
                if action == "stuck":
                    return  # write silently dropped; P-state unchanged
            # One PERF_CTL per frequency domain: on shared-domain
            # topologies this files the core's vote and the domain
            # resolves max-of-votes across members; per-core it is a
            # direct register write, exactly as before.
            self.core.request_frequency(freq_ghz)
        else:
            raise MsrError(f"write to unsupported MSR {address:#x}")
