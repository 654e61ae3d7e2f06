"""Unit tests for the classic bus encoders."""

import numpy as np
import pytest

from repro.encoding import (
    BusInvertEncoder,
    GrayEncoder,
    RawEncoder,
    T0Encoder,
    XorDiffEncoder,
    measure_encoder,
    stream_transitions,
)

from .encoding_oracle import oracle_measure


class TwoStrideT0(T0Encoder):
    """A faulty T0 that also raises INC on a two-stride step.

    The receiver regenerates one stride per INC word, so it cannot follow.
    """

    def encode(self, word: int) -> int:
        previous = self._previous_logical
        if previous is not None and word == (previous + 2 * self.stride) & self.mask:
            self._previous_logical = (previous + self.stride) & self.mask
        return super().encode(word)

    def encode_stream(self, words):
        physical, inc = [], []
        for word in words.tolist():
            physical.append(self.encode(word))
            inc.append(self._inc_wire)
        return np.array(physical, dtype=np.uint64), np.array(inc, dtype=bool)


class TestStreamTransitions:
    def test_counts_from_idle(self):
        assert stream_transitions([0b111]) == 3

    def test_sequence(self):
        assert stream_transitions([1, 2, 3]) == 1 + 2 + 1


class TestWidthAndRange:
    @pytest.mark.parametrize("width", [0, 65])
    def test_width_outside_1_to_64_rejected(self, width):
        with pytest.raises(ValueError, match=f"got {width}"):
            RawEncoder(width)

    def test_measure_names_the_first_word_outside_the_width(self):
        # One range check before conversion: no OverflowError from numpy.
        for words in ([3, 1 << 70, -1], [3, -1, 1 << 70]):
            bad = words[1]
            with pytest.raises(ValueError, match=f"word {bad:#x} outside 8-bit range"):
                measure_encoder(GrayEncoder(8), words)


class TestRaw:
    def test_identity(self):
        encoder = RawEncoder(16)
        assert encoder.encode(0xABC) == 0xABC
        assert encoder.decode(0xABC) == 0xABC

    def test_range_check(self):
        with pytest.raises(ValueError):
            RawEncoder(8).encode(256)


class TestGray:
    def test_known_values(self):
        encoder = GrayEncoder(8)
        assert encoder.encode(0) == 0
        assert encoder.encode(1) == 1
        assert encoder.encode(2) == 3
        assert encoder.encode(3) == 2

    def test_roundtrip(self):
        encoder = GrayEncoder(16)
        for word in [0, 1, 2, 1000, 0xFFFF]:
            assert encoder.decode(encoder.encode(word)) == word

    def test_sequential_stream_one_transition_per_step(self):
        encoder = GrayEncoder(16)
        physical = [encoder.encode(i) for i in range(64)]
        # Gray code: consecutive values differ in exactly one bit.
        assert stream_transitions(physical) == stream_transitions([0]) + 63


class TestT0:
    def test_sequential_addresses_freeze_the_bus(self):
        encoder = T0Encoder(32, stride=4)
        report = measure_encoder(encoder, [0x100 + 4 * i for i in range(50)])
        assert report.decodable
        # Only the first word moves the wires; the INC wire flips once.
        assert report.encoded_transitions == stream_transitions([0x100])
        assert report.extra_wire_transitions == 1

    def test_non_sequential_passes_through(self):
        encoder = T0Encoder(32, stride=4)
        words = [0x100, 0x500, 0x104]
        report = measure_encoder(encoder, words)
        assert report.decodable

    def test_mixed_stream_decodes(self):
        encoder = T0Encoder(32, stride=4)
        words = [0, 4, 8, 100, 104, 7, 11, 15]
        report = measure_encoder(encoder, words)
        assert report.decodable

    def test_decodable_fails_when_inc_skips_a_stride(self):
        # The receiver rebuilds 12 as 4 + 4 = 8 from its own previous word.
        words = [0, 4, 12, 16]
        assert measure_encoder(TwoStrideT0(32, stride=4), words).decodable is False
        assert oracle_measure(TwoStrideT0(32, stride=4), words).decodable is False
        assert measure_encoder(T0Encoder(32, stride=4), words).decodable is True

    def test_receiver_keeps_its_own_previous_word(self):
        encoder = T0Encoder(16, stride=4)
        for word in (8, 12, 16):
            assert encoder.decode(encoder.encode(word)) == word
        assert encoder._dec_previous == 16
        encoder.reset()
        assert encoder._dec_previous == 0

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            T0Encoder(stride=0)

    def test_extra_wire_reported(self):
        assert T0Encoder().extra_wires == 1


class TestXorDiff:
    def test_roundtrip_stream(self):
        encoder = XorDiffEncoder(16)
        words = [5, 5, 9, 1000, 1000, 3]
        for word in words:
            assert encoder.decode(encoder.encode(word)) == word

    def test_constant_diff_freezes_wires(self):
        report = measure_encoder(XorDiffEncoder(16), [0xA0, 0xA1] * 20)
        assert report.decodable
        assert report.encoded_transitions < report.raw_transitions


class TestBusInvert:
    def test_limits_flips_to_half_width(self):
        encoder = BusInvertEncoder(8)
        report = measure_encoder(encoder, [0x00, 0xFF, 0x00, 0xFF])
        assert report.decodable
        # Raw would flip 8 wires per step; bus-invert caps data flips at 4.
        assert report.encoded_transitions <= report.words * 4

    def test_polarity_wire_charged(self):
        encoder = BusInvertEncoder(8)
        report = measure_encoder(encoder, [0x00, 0xFF])
        assert report.extra_wire_transitions >= 1

    def test_small_changes_not_inverted(self):
        encoder = BusInvertEncoder(8)
        assert encoder.encode(0b1) == 0b1
        assert encoder.encode(0b11) == 0b11

    def test_roundtrip(self):
        encoder = BusInvertEncoder(8)
        for word in [0x00, 0xFF, 0x0F, 0xF0, 0xAA]:
            assert encoder.decode(encoder.encode(word)) == word

    def test_reset(self):
        encoder = BusInvertEncoder(8)
        encoder.encode(0xFF)
        encoder.reset()
        assert encoder.extra_transitions == 0
        assert encoder.encode(0x01) == 0x01
