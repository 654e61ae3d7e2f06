"""Unit tests for the analytical energy models.

These pin down the *relationships* the experiments rely on, not absolute
picojoules: monotonicity with capacity, write > read, off-chip >> on-chip,
decoder overhead growing with bank count.
"""

import numpy as np
import pytest

from repro.memory import (
    BusEnergyModel,
    DecoderEnergyModel,
    DRAMEnergyModel,
    SRAMEnergyModel,
)


class TestSRAM:
    def test_bigger_is_costlier(self):
        model = SRAMEnergyModel()
        energies = [model.read_energy(size) for size in (256, 1024, 4096, 65536)]
        assert energies == sorted(energies)
        assert energies[-1] > energies[0]

    def test_write_costs_more_than_read(self):
        model = SRAMEnergyModel()
        assert model.write_energy(1024) > model.read_energy(1024)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SRAMEnergyModel().read_energy(0)

    def test_rejects_nonpositive_word(self):
        with pytest.raises(ValueError):
            SRAMEnergyModel().read_energy(64, word_bytes=0)

    def test_leakage_scales_with_time_and_size(self):
        model = SRAMEnergyModel()
        assert model.leakage_energy(1024, 1000) > model.leakage_energy(1024, 100)
        assert model.leakage_energy(4096, 100) > model.leakage_energy(1024, 100)

    def test_leakage_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            SRAMEnergyModel().leakage_energy(1024, -1)


class TestDRAM:
    def test_activation_floor(self):
        model = DRAMEnergyModel()
        assert model.access_energy(1) > model.e_activation

    def test_zero_bytes_costs_nothing(self):
        assert DRAMEnergyModel().access_energy(0) == 0.0

    def test_linear_in_bytes(self):
        model = DRAMEnergyModel()
        delta = model.access_energy(64) - model.access_energy(32)
        assert delta == pytest.approx(32 * model.e_per_byte)

    def test_offchip_dwarfs_onchip(self):
        dram = DRAMEnergyModel()
        sram = SRAMEnergyModel()
        assert dram.access_energy(32) > 10 * sram.read_energy(8 * 1024)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DRAMEnergyModel().access_energy(-1)


class TestBus:
    def test_energy_proportional_to_transitions(self):
        model = BusEnergyModel(e_per_transition=2.0)
        assert model.energy(10) == 20.0

    def test_offchip_costlier_than_onchip(self):
        assert BusEnergyModel.off_chip().e_per_transition > BusEnergyModel.on_chip().e_per_transition

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BusEnergyModel().energy(-1)

    def test_array_of_counts_prices_each_count(self):
        model = BusEnergyModel.on_chip()
        energies = model.energy(np.array([0, 3, 17], dtype=np.int64))
        assert [e.hex() for e in energies.tolist()] == [
            model.energy(count).hex() for count in (0, 3, 17)
        ]
        with pytest.raises(ValueError, match="got -2"):
            model.energy(np.array([0, 3, -2]))


class TestDecoder:
    def test_single_bank_is_free(self):
        assert DecoderEnergyModel().access_energy(1) == 0.0

    def test_overhead_grows_with_banks(self):
        model = DecoderEnergyModel()
        energies = [model.access_energy(k) for k in (2, 4, 8, 16)]
        assert energies == sorted(energies)
        assert energies[0] > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DecoderEnergyModel().access_energy(0)
