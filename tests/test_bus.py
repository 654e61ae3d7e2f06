"""Unit tests for the bus model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import Bus, count_transitions, hamming
from repro.encoding import XorDiffEncoder
from repro.memory import BusEnergyModel


class TestHamming:
    def test_basic(self):
        assert hamming(0b1010, 0b0101) == 4
        assert hamming(0, 0) == 0
        assert hamming(0xFF, 0x00) == 8

    @given(
        a=st.integers(min_value=0, max_value=(1 << 200) - 1),
        b=st.integers(min_value=0, max_value=(1 << 200) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bin_count_at_any_width(self, a, b):
        assert hamming(a, b) == bin(a ^ b).count("1")

    def test_rejects_negative_difference(self):
        with pytest.raises(ValueError, match="non-negative"):
            hamming(-1, 0)


class TestCountTransitions:
    def test_from_idle(self):
        assert count_transitions([0b1]) == 1

    def test_sequence(self):
        assert count_transitions([0b11, 0b00, 0b11]) == 6

    def test_empty(self):
        assert count_transitions([]) == 0

    def test_initial_bus_state(self):
        assert count_transitions([0b11, 0b01], initial=0b11) == 0 + 1


class TestBus:
    def test_transition_counting(self):
        bus = Bus(width=8)
        bus.drive(0xFF)
        bus.drive(0x00)
        assert bus.stats.transitions == 16
        assert bus.stats.words == 2

    def test_width_masks_words(self):
        bus = Bus(width=8)
        bus.drive(0x1FF)  # only low 8 bits drive wires
        assert bus.stats.transitions == 9 - 1  # 0xFF has 8 set bits

    def test_energy_matches_model(self):
        model = BusEnergyModel(e_per_transition=3.0)
        bus = Bus(width=8, energy_model=model)
        energy = bus.drive(0x0F)
        assert energy == pytest.approx(4 * 3.0)
        assert bus.energy == pytest.approx(4 * 3.0)

    def test_rejects_negative_word(self):
        with pytest.raises(ValueError):
            Bus().drive(-1)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Bus(width=0)

    def test_rejects_width_past_64(self):
        with pytest.raises(ValueError, match="got 65"):
            Bus(width=65)

    def test_drive_all_rejects_the_first_negative_word(self):
        for words in ([3, -2, -5], np.array([3, -2, -5])):
            with pytest.raises(ValueError, match="non-negative, got -2"):
                Bus().drive_all(words)

    def test_drive_all_masks_like_drive(self):
        looped, streamed = Bus(width=8), Bus(width=8)
        words = [0x1FF, 1 << 70, 0x0F]
        energy = 0.0
        for word in words:
            energy += looped.drive(word)
        assert streamed.drive_all(words) == energy
        assert streamed.stats == looped.stats

    def test_drive_all_of_nothing(self):
        bus = Bus()
        assert bus.drive_all([]) == 0.0
        assert bus.stats.words == 0

    def test_drive_bytes_little_endian(self):
        bus = Bus(width=32)
        bus.drive_bytes(b"\x01\x00\x00\x00")
        assert bus.stats.transitions == 1

    def test_drive_bytes_pads_partial_words(self):
        bus = Bus(width=32)
        energy = bus.drive_bytes(b"\xff")  # one byte -> one padded word
        assert bus.stats.words == 1
        assert energy > 0

    def test_encoder_reduces_transitions_on_repeating_diffs(self):
        # XOR-diff freezes the wires when consecutive XOR differences repeat:
        # an alternating two-word pattern has a constant difference.
        plain = Bus(width=32)
        encoded = Bus(width=32, encoder=XorDiffEncoder(32))
        stream = [0xDEADBEEF, 0xDEAD0000] * 25
        plain.drive_all(stream)
        encoded.drive_all(stream)
        assert encoded.stats.transitions < plain.stats.transitions
        assert encoded.stats.raw_transitions == plain.stats.transitions

    def test_reduction_property(self):
        bus = Bus(width=32, encoder=XorDiffEncoder(32))
        bus.drive_all([7, 5, 7, 5, 7, 5])
        assert 0.0 < bus.stats.reduction <= 1.0

    def test_reset_clears_everything(self):
        bus = Bus(width=16, encoder=XorDiffEncoder(16))
        bus.drive_all([1, 2, 3])
        bus.reset()
        assert bus.stats.words == 0
        assert bus.stats.transitions == 0
        assert bus.energy == 0.0
