"""Unit tests for the learned functional transform and the selector."""

import tracemalloc

import numpy as np
import pytest

from repro.encoding import (
    FunctionalEncoder,
    RawEncoder,
    TransformSelector,
    measure_encoder,
)
from repro.encoding import functional as functional_module
from repro.encoding import selector as selector_module

from .encoding_oracle import oracle_partners


def per_bit_transform(partners, word):
    """Reference transform: output bit ``i`` is ``b_i``, XORed with ``b_p(i)`` if paired."""
    out = 0
    for bit, partner in enumerate(partners):
        value = (word >> bit) & 1
        if partner != -1:
            value ^= (word >> partner) & 1
        out |= value << bit
    return out


def per_bit_inverse(partners, word):
    """Reference inverse: back-substitution from the top bit down."""
    out = 0
    for bit in range(len(partners) - 1, -1, -1):
        value = (word >> bit) & 1
        if partners[bit] != -1:
            value ^= (out >> partners[bit]) & 1
        out |= value << bit
    return out


def correlated_stream(n=2000, seed=0):
    """Stream where bit 3 mirrors bit 7 — a learnable correlation."""
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(n):
        word = int(rng.integers(0, 2**16))
        # Force bit 3 = bit 7.
        bit7 = (word >> 7) & 1
        word = (word & ~(1 << 3)) | (bit7 << 3)
        words.append(word)
    return words


class TestTransform:
    def test_identity_partners_is_raw(self):
        encoder = FunctionalEncoder(width=16, xor_previous=False)
        for word in [0, 1, 0xFFFF, 0x1234]:
            assert encoder.encode(word) == word

    def test_roundtrip_random_partners(self):
        # The byte-table transform must equal the per-bit reference at every
        # width, including widths that leave a partial top byte.
        rng = np.random.default_rng(1)
        for width in range(1, 41):
            for xor_previous in (False, True):
                partners = [-1] * width
                for bit in range(width - 1):
                    if rng.random() < 0.5:
                        partners[bit] = int(rng.integers(bit + 1, width))
                encoder = FunctionalEncoder(
                    width=width, xor_previous=xor_previous, partners=partners
                )
                assert encoder.partners == partners
                mask = (1 << width) - 1
                words = [0, mask] + [int(rng.integers(0, 1 << width)) for _ in range(50)]
                previous = 0  # the reference's temporal-XOR state
                for word in words:
                    transformed = per_bit_transform(partners, word)
                    assert per_bit_inverse(partners, transformed) == word
                    assert encoder._transform(word) == transformed
                    assert encoder._inverse_transform(transformed) == word
                    physical = encoder.encode(word)
                    if xor_previous:
                        transformed, previous = transformed ^ previous, transformed
                    assert physical == transformed
                    assert encoder.decode(physical) == word

    def test_roundtrip_with_temporal_stage(self):
        rng = np.random.default_rng(2)
        encoder = FunctionalEncoder(width=16, xor_previous=True, partners=[-1] * 16)
        for _ in range(100):
            word = int(rng.integers(0, 2**16))
            assert encoder.decode(encoder.encode(word)) == word

    def test_partner_validation(self):
        # partner strictly above the bit is legal ...
        FunctionalEncoder(width=8, partners=[7] + [-1] * 7)
        # ... but self-partnering or downward partners are not.
        with pytest.raises(ValueError):
            FunctionalEncoder(width=8, partners=[0] + [-1] * 7)
        with pytest.raises(ValueError):
            FunctionalEncoder(width=8, partners=[-1] * 7 + [7])

    def test_partner_table_length_checked(self):
        with pytest.raises(ValueError):
            FunctionalEncoder(width=8, partners=[-1] * 4)


class TestFit:
    def test_learns_forced_correlation(self):
        words = correlated_stream()
        encoder = FunctionalEncoder.fit(words, width=16, xor_previous=False)
        # Bit 3 == bit 7 always, so XORing them zeroes bit 3's transitions.
        assert encoder.partners[3] == 7

    def test_fit_reduces_transitions(self):
        words = correlated_stream(seed=5)
        encoder = FunctionalEncoder.fit(words, width=16, xor_previous=False)
        report = measure_encoder(encoder, words)
        raw = measure_encoder(RawEncoder(16), words)
        assert report.decodable
        assert report.total_transitions < raw.total_transitions

    def test_fit_on_empty_stream(self):
        encoder = FunctionalEncoder.fit([], width=8)
        assert encoder.partners == [-1] * 8

    @pytest.mark.parametrize("block_steps", [11, 7])
    def test_blocked_fit_keeps_every_step(self, monkeypatch, block_steps):
        # 100 words are 99 steps: 9 blocks of 11 end on a block boundary,
        # 15 blocks of 7 end on a partial block.
        rng = np.random.default_rng(11)
        words = [int(word) for word in rng.integers(0, 2**16, size=100)]
        expected = oracle_partners(words, 16)
        assert FunctionalEncoder.fit(words, width=16).partners == expected
        monkeypatch.setattr(functional_module, "_FIT_BLOCK_STEPS", block_steps)
        assert FunctionalEncoder.fit(words, width=16).partners == expected

    def test_fit_memory_is_bounded_by_the_block(self):
        words = np.random.default_rng(0).integers(0, 2**32, size=200_000, dtype=np.uint64)
        tracemalloc.start()
        try:
            FunctionalEncoder.fit(words, width=32)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_bytes < 16 * 2**20, f"fit peaked at {peak_bytes / 2**20:.1f} MiB"

    def test_fit_decodable_on_unseen_data(self):
        train = correlated_stream(seed=7)
        test = correlated_stream(seed=8)
        encoder = FunctionalEncoder.fit(train, width=16, xor_previous=False)
        assert measure_encoder(encoder, test).decodable


class TestSelector:
    def test_selects_minimum_transition_encoder(self):
        words = correlated_stream(seed=9)
        selection = TransformSelector(width=16).select(words)
        best_total = selection.best_report.total_transitions
        assert all(report.total_transitions >= best_total for report in selection.scoreboard)

    def test_scoreboard_contains_raw_baseline(self):
        words = correlated_stream(seed=10, n=500)
        selection = TransformSelector(width=16).select(words)
        raw = selection.report_for("raw")
        assert raw.reduction == 0.0

    def test_functional_included_by_default(self):
        words = correlated_stream(seed=11, n=500)
        selection = TransformSelector(width=16).select(words)
        names = {report.encoder_name for report in selection.scoreboard}
        assert "functional" in names and "functional+xor" in names

    def test_functional_can_be_excluded(self):
        words = correlated_stream(seed=12, n=500)
        selection = TransformSelector(width=16, include_functional=False).select(words)
        names = {report.encoder_name for report in selection.scoreboard}
        assert "functional" not in names

    def test_everything_decodable(self):
        words = correlated_stream(seed=13, n=800)
        selection = TransformSelector(width=16).select(words)
        assert all(report.decodable for report in selection.scoreboard)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            TransformSelector().select([])

    def test_train_fraction_validated(self):
        with pytest.raises(ValueError):
            TransformSelector(train_fraction=0.0)

    @pytest.mark.parametrize(
        ("words", "index", "word"), [([5, -2], 1, -2), ([1 << 32], 0, 1 << 32)]
    )
    def test_out_of_range_word_rejected_before_training(self, words, index, word):
        # One ValueError naming the word, not a failure deep in training.
        with pytest.raises(ValueError) as caught:
            TransformSelector(width=32).select(words)
        message = str(caught.value)
        assert message == (
            f"word {index} is {word}, outside the 32-bit bus range [0, 2**32)"
        )
        assert "hamming" not in message

    def test_undecodable_candidate_is_never_ranked(self, monkeypatch):
        class BitFlipDecoder(RawEncoder):
            name = "bit_flip"

            def decode_stream(self, physical, wire):
                return physical ^ np.uint64(1)

        monkeypatch.setattr(
            selector_module,
            "default_candidates",
            lambda width: [RawEncoder(width), BitFlipDecoder(width)],
        )
        with pytest.raises(ValueError, match="'bit_flip' does not decode"):
            TransformSelector(width=16, include_functional=False).select(
                correlated_stream(seed=15, n=50)
            )

    def test_report_for_unknown_raises(self):
        words = correlated_stream(seed=14, n=300)
        selection = TransformSelector(width=16).select(words)
        with pytest.raises(KeyError):
            selection.report_for("nonexistent")


class TestOnRealInstructionStreams:
    def test_functional_beats_raw_on_kernel_fetch_stream(self, kernel_runs):
        result = kernel_runs("fir")
        words = [event.value for event in result.instruction_trace]
        selection = TransformSelector(width=32).select(words)
        functional = selection.report_for("functional")
        assert functional.reduction > 0.25
        assert functional.decodable
