"""Unit tests for banks, partitioned memories, and main memory."""

import pytest

from repro.memory import (
    AccessOutsideMemoryError,
    MainMemory,
    MemoryBank,
    MonolithicMemory,
    PartitionedMemory,
)
from repro.memory.partitioned import MemoryEnergyReport
from repro.trace import AccessKind, MemoryAccess, Trace


class TestMemoryBank:
    def test_contains(self):
        bank = MemoryBank(base=0x100, size=0x40)
        assert bank.contains(0x100)
        assert bank.contains(0x13F)
        assert not bank.contains(0x140)
        assert not bank.contains(0xFF)

    def test_counters_and_energy(self):
        bank = MemoryBank(base=0, size=1024)
        read_energy = bank.read()
        write_energy = bank.write()
        assert bank.reads == 1 and bank.writes == 1
        assert write_energy > read_energy
        assert bank.dynamic_energy == pytest.approx(read_energy + write_energy)

    def test_reset(self):
        bank = MemoryBank(base=0, size=64)
        bank.read()
        bank.reset_counters()
        assert bank.accesses == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBank(base=0, size=0)
        with pytest.raises(ValueError):
            MemoryBank(base=-4, size=64)


class TestPartitionedMemory:
    def test_bank_layout_is_contiguous(self):
        memory = PartitionedMemory([64, 128, 64], base=0x1000)
        assert [bank.base for bank in memory.banks] == [0x1000, 0x1040, 0x10C0]
        assert memory.limit == 0x1100
        assert memory.size == 256

    def test_bank_for_routes_correctly(self):
        memory = PartitionedMemory([64, 128, 64])
        assert memory.bank_for(0).name == "bank0"
        assert memory.bank_for(63).name == "bank0"
        assert memory.bank_for(64).name == "bank1"
        assert memory.bank_for(191).name == "bank1"
        assert memory.bank_for(192).name == "bank2"

    def test_out_of_range_raises(self):
        memory = PartitionedMemory([64])
        with pytest.raises(AccessOutsideMemoryError):
            memory.bank_for(64)
        with pytest.raises(AccessOutsideMemoryError):
            memory.bank_for(-1)

    def test_requires_banks(self):
        with pytest.raises(ValueError):
            PartitionedMemory([])

    def test_access_charges_bank_plus_decoder(self):
        memory = PartitionedMemory([64, 64])
        energy = memory.access(MemoryAccess(time=0, address=0))
        assert energy > memory.banks[0].model.read_energy(64)

    def test_play_counts_accesses_per_bank(self):
        memory = PartitionedMemory([64, 64])
        trace = Trace(
            [
                MemoryAccess(time=0, address=0),
                MemoryAccess(time=1, address=70),
                MemoryAccess(time=2, address=4, kind=AccessKind.WRITE),
            ]
        )
        report = memory.play(trace)
        assert memory.bank_access_counts() == [2, 1]
        assert report.accesses == 3
        assert report.total > 0

    def test_play_with_leakage_adds_energy(self):
        memory = PartitionedMemory([64, 64])
        trace = Trace([MemoryAccess(time=0, address=0), MemoryAccess(time=100, address=0)])
        without = memory.play(trace, include_leakage=False).total
        with_leak = memory.play(trace, include_leakage=True).total
        assert with_leak > without

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((-1.0, 0.0, 0.0, 1), "bank_energy"),
            ((1.0, -1.0, 0.0, 1), "decoder_energy"),
            ((1.0, 0.0, -1e-9, 1), "leakage_energy"),
            ((1.0, 0.0, 0.0, -1), "accesses"),
        ],
    )
    def test_energy_report_checks_each_field(self, fields, name):
        with pytest.raises(ValueError, match=name):
            MemoryEnergyReport(*fields)

    def test_smaller_bank_cheaper_per_access(self):
        # Same trace on [small hot bank + big cold bank] vs one big bank.
        trace = Trace([MemoryAccess(time=t, address=0) for t in range(100)])
        split = PartitionedMemory([64, 4096 - 64])
        mono = MonolithicMemory(4096)
        assert split.play(trace).bank_energy < mono.play(trace).bank_energy


class TestMonolithicMemory:
    def test_no_decoder_overhead(self):
        memory = MonolithicMemory(1024)
        trace = Trace([MemoryAccess(time=0, address=0)])
        report = memory.play(trace)
        assert report.decoder_energy == 0.0


class TestMainMemory:
    def test_burst_accounting(self):
        memory = MainMemory(line_bytes=32)
        memory.read_burst()
        memory.write_burst(16)
        assert memory.reads == 1 and memory.writes == 1
        assert memory.bytes_read == 32 and memory.bytes_written == 16
        assert memory.bytes_transferred == 48
        assert memory.energy > 0

    def test_smaller_burst_cheaper(self):
        memory = MainMemory()
        full = memory.read_burst(32)
        half = memory.read_burst(16)
        assert half < full

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MainMemory().read_burst(-1)

    def test_reset(self):
        memory = MainMemory()
        memory.write_burst(8)
        memory.reset_counters()
        assert memory.accesses == 0 and memory.energy == 0.0
