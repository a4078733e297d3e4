"""MSR register file and RAPL package counters."""

import pytest

from repro.cpu.core import Core
from repro.cpu.msr import (
    IA32_PERF_CTL, MsrError, MsrFile, decode_perf_ctl, encode_perf_ctl,
)
from repro.cpu.pstates import PStateTable
from repro.cpu.rapl import RaplPackage
from repro.sim.engine import Simulator


class Job:
    """Stand-in transaction: the core reads only ``work`` (giga-cycles)."""

    def __init__(self, work):
        self.work = work


@pytest.fixture
def core(sim):
    table = PStateTable.from_frequencies([1.2, 1.6, 2.0, 2.4, 2.8])
    return Core(sim, 0, table, initial_freq=1.2)


def test_perf_ctl_roundtrip():
    for freq in (1.2, 1.6, 2.0, 2.4, 2.8):
        assert decode_perf_ctl(encode_perf_ctl(freq)) == freq


def test_perf_ctl_encoding_matches_sdm():
    # ratio in bits 15:8; 2.8 GHz = ratio 28.
    assert encode_perf_ctl(2.8) == 28 << 8
    assert decode_perf_ctl(28 << 8) == 2.8


def test_write_perf_ctl_changes_core_frequency(core):
    msr = MsrFile(core)
    msr.write(IA32_PERF_CTL, encode_perf_ctl(2.4))
    assert core.freq == 2.4


def test_write_unsupported_msr_rejected(core):
    with pytest.raises(MsrError):
        MsrFile(core).write(0x123, 1)


def test_decode_rejects_reserved_low_bits():
    # Ratio 28 plus junk in bits 7:0 is a corrupted write, not 2.8 GHz.
    with pytest.raises(MsrError):
        decode_perf_ctl((28 << 8) | 0x01)


def test_decode_rejects_bits_above_ratio_field():
    # The SDM's IDA-disengage bit (and anything else above bit 15) is
    # unimplemented here; setting it must not decode silently.
    with pytest.raises(MsrError):
        decode_perf_ctl((28 << 8) | (1 << 16))


def test_decode_rejects_negative_and_ratio_zero():
    with pytest.raises(MsrError):
        decode_perf_ctl(-1)
    with pytest.raises(MsrError):
        decode_perf_ctl(0)


def test_encode_rejects_out_of_range_frequency():
    with pytest.raises(MsrError):
        encode_perf_ctl(0.0)
    with pytest.raises(MsrError):
        encode_perf_ctl(26.0)  # ratio 260 > 0xFF


def test_encode_decode_roundtrip_over_encodable_ratios():
    for ratio in (1, 12, 28, 255):
        freq = round(ratio * 0.1, 1)
        assert decode_perf_ctl(encode_perf_ctl(freq)) == freq


def test_write_garbage_perf_ctl_rejected_before_core_touched(core):
    msr = MsrFile(core)
    before = core.freq
    for value in (-1, 0, (28 << 8) | 0x40, 1 << 20):
        with pytest.raises(MsrError):
            msr.write(IA32_PERF_CTL, value)
    assert core.freq == before


def test_write_off_table_frequency_rejected(core):
    # Ratio 5 (0.5 GHz) encodes fine but is not a P-state of this core.
    with pytest.raises(MsrError):
        MsrFile(core).write(IA32_PERF_CTL, encode_perf_ctl(0.5))


def test_malformed_write_raises_without_consulting_fault_hook(core):
    msr = MsrFile(core)
    calls = []
    msr.fault_hook = lambda addr, value: calls.append(value)
    with pytest.raises(MsrError):
        msr.write(IA32_PERF_CTL, (28 << 8) | 0x01)
    assert calls == []  # validation precedes injection


def test_fault_hook_sees_well_formed_writes(core):
    msr = MsrFile(core)
    seen = []

    def hook(address, value):
        seen.append((address, value))
        return None

    msr.fault_hook = hook
    msr.write(IA32_PERF_CTL, encode_perf_ctl(2.0))
    assert seen == [(IA32_PERF_CTL, encode_perf_ctl(2.0))]
    assert core.freq == 2.0


def test_rapl_energy_status_counts(sim, core):
    package = RaplPackage(0, [core])
    core.start_job(Job(1.2))  # 1 s at 1.2 GHz
    sim.run()
    expected = core.power_model.active_power(1.2) * 1.0
    assert package.energy_joules(sim.now) == pytest.approx(expected)


def test_rapl_package_average_power(sim, core):
    package = RaplPackage(0, [core])
    e0 = package.energy_joules(0.0)
    core.start_job(Job(2.4))  # 2 s at 1.2
    sim.run()
    avg = (package.energy_joules(2.0) - e0) / 2.0
    assert avg == pytest.approx(core.power_model.active_power(1.2))


def test_rapl_needs_cores():
    with pytest.raises(ValueError):
        RaplPackage(0, [])
