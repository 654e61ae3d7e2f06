"""Tests for profile-driven selective code compression."""

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.codecomp import SelectiveCodeCompressor, WordDictionaryCodec
from repro.isa.programs import build_firmware


@pytest.fixture(scope="module")
def firmware():
    return build_firmware(hot_functions=12, cold_functions=48, hot_calls=60)


@pytest.fixture(scope="module")
def compressor():
    return SelectiveCodeCompressor(icache=CacheConfig(size=512, line_size=32, ways=2))


@pytest.fixture(scope="module")
def profiled(firmware, compressor):
    return compressor.profile(firmware)


class TestWordDictionaryCodec:
    def test_roundtrip(self):
        words = [0x11, 0x22, 0x11, 0xDEADBEEF, 0x22, 0x11]
        codec = WordDictionaryCodec.fit(words, max_entries=2)
        payload = codec.compress_block(words)
        assert codec.decompress_block(payload, len(words)) == words

    def test_frequent_words_in_dictionary(self):
        words = [7] * 10 + [9] * 5 + [1]
        codec = WordDictionaryCodec.fit(words, max_entries=2)
        assert 7 in codec.dictionary and 9 in codec.dictionary
        assert 1 not in codec.dictionary

    def test_dictionary_hits_cost_one_byte(self):
        codec = WordDictionaryCodec([0xAB])
        assert codec.compressed_size([0xAB] * 8) == 8

    def test_escapes_cost_five_bytes(self):
        codec = WordDictionaryCodec([])
        assert codec.compressed_size([0xDEADBEEF]) == 5

    def test_weights_override_static_frequency(self):
        words = [1, 1, 1, 2]
        codec = WordDictionaryCodec.fit(words, max_entries=1, weights={2: 100})
        assert codec.dictionary == [2]

    def test_validation(self):
        with pytest.raises(ValueError):
            WordDictionaryCodec([1, 1])
        with pytest.raises(ValueError):
            WordDictionaryCodec([1 << 32])
        with pytest.raises(ValueError):
            WordDictionaryCodec.fit([1], max_entries=0)

    def test_corrupt_stream_rejected(self):
        codec = WordDictionaryCodec([5])
        with pytest.raises(ValueError):
            codec.decompress_block(b"\x07", 1)  # index beyond dictionary
        with pytest.raises(ValueError):
            codec.decompress_block(b"", 1)

    def test_fuzz_roundtrip(self):
        rng = np.random.default_rng(1)
        vocabulary = [int(v) for v in rng.integers(0, 2**32, 40)]
        codec = WordDictionaryCodec.fit(vocabulary, max_entries=16)
        for _ in range(50):
            words = [vocabulary[int(rng.integers(0, 40))] for _ in range(8)]
            payload = codec.compress_block(words)
            assert codec.decompress_block(payload, 8) == words


class TestLayout:
    def test_fraction_zero_is_free(self, firmware, compressor, profiled):
        _trace, counts = profiled
        layout = compressor.build_layout(firmware, counts, fraction=0.0)
        assert layout.size_reduction == 0.0
        assert layout.stored_size == layout.raw_size

    def test_full_compression_shrinks_redundant_code(self, firmware, compressor, profiled):
        _trace, counts = profiled
        layout = compressor.build_layout(firmware, counts, fraction=1.0)
        assert layout.size_reduction > 0.4

    def test_size_reduction_monotone_in_fraction(self, firmware, compressor, profiled):
        _trace, counts = profiled
        reductions = [
            compressor.build_layout(firmware, counts, fraction=f).size_reduction
            for f in (0.25, 0.5, 0.75, 1.0)
        ]
        assert reductions == sorted(reductions)

    def test_coldest_selection_avoids_hot_blocks(self, firmware, compressor, profiled):
        _trace, counts = profiled
        layout = compressor.build_layout(firmware, counts, fraction=0.3, selection="coldest")
        hottest_block = max(counts, key=counts.get)
        assert hottest_block not in layout.compressed_blocks

    def test_fraction_validated(self, firmware, compressor, profiled):
        _trace, counts = profiled
        with pytest.raises(ValueError):
            compressor.build_layout(firmware, counts, fraction=1.5)
        with pytest.raises(ValueError):
            compressor.build_layout(firmware, counts, fraction=0.5, selection="random")


class TestEvaluation:
    def test_no_compression_no_slowdown(self, firmware, compressor, profiled):
        trace, counts = profiled
        layout = compressor.build_layout(firmware, counts, fraction=0.0)
        report = compressor.evaluate(layout, trace)
        assert report.slowdown == 0.0
        assert report.compressed_refills == 0

    def test_selective_beats_adversarial_at_same_size(self, firmware, compressor, profiled):
        trace, counts = profiled
        cold = compressor.build_layout(firmware, counts, fraction=0.8, selection="coldest")
        hot = compressor.build_layout(firmware, counts, fraction=0.8, selection="hottest")
        cold_report = compressor.evaluate(cold, trace)
        hot_report = compressor.evaluate(hot, trace)
        # Similar size reduction, radically different penalty.
        assert abs(cold_report.size_reduction - hot_report.size_reduction) < 0.1
        assert cold_report.slowdown < 0.3 * hot_report.slowdown

    def test_slowdown_monotone_in_fraction(self, firmware, compressor, profiled):
        trace, counts = profiled
        slowdowns = [
            compressor.evaluate(
                compressor.build_layout(firmware, counts, fraction=f), trace
            ).slowdown
            for f in (0.0, 0.5, 1.0)
        ]
        assert slowdowns == sorted(slowdowns)

    @pytest.mark.parametrize(
        ("block_words", "line_size"), [(4, 32), (16, 32), (8, 64)]
    )
    def test_rejects_a_block_that_is_not_one_line(self, block_words, line_size):
        icache = CacheConfig(size=1024, line_size=line_size, ways=2)
        with pytest.raises(ValueError, match=f"block_words {block_words} .*{line_size} bytes"):
            SelectiveCodeCompressor(block_words=block_words, icache=icache)
