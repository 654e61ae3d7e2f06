"""Unit tests for the sparse memory image."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import MemoryImage


class TestMemoryImage:
    def test_unwritten_reads_zero(self):
        image = MemoryImage()
        assert image.load(0x1000) == 0
        assert image.line_bytes(0x1000, 16) == bytes(16)

    def test_word_roundtrip(self):
        image = MemoryImage()
        image.store(0x100, 0xDEADBEEF)
        assert image.load(0x100) == 0xDEADBEEF

    def test_byte_and_half_stores(self):
        image = MemoryImage()
        image.store(0x10, 0xAB, size=1)
        image.store(0x12, 0x1234, size=2)
        assert image.load(0x10, size=1) == 0xAB
        assert image.load(0x12, size=2) == 0x1234
        assert image.load(0x10) == 0x1234_00AB

    def test_unaligned_word_store(self):
        image = MemoryImage()
        image.store(0x101, 0x11223344)
        assert image.load(0x101) == 0x11223344

    def test_store_masks_value(self):
        image = MemoryImage()
        image.store(0, 0x1FF, size=1)
        assert image.load(0, size=1) == 0xFF

    def test_line_bytes_little_endian(self):
        image = MemoryImage()
        image.store(0x20, 0x04030201)
        assert image.line_bytes(0x20, 8) == b"\x01\x02\x03\x04\x00\x00\x00\x00"

    def test_write_line_roundtrip(self):
        image = MemoryImage()
        payload = bytes(range(32))
        image.write_line(0x40, payload)
        assert image.line_bytes(0x40, 32) == payload

    def test_invalid_size_rejected(self):
        image = MemoryImage()
        with pytest.raises(ValueError):
            image.store(0, 0, size=3)
        with pytest.raises(ValueError):
            image.load(0, size=8)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryImage().store(-4, 0)

    def test_footprint(self):
        image = MemoryImage()
        image.store(0, 1)
        image.store(4, 1)
        image.store(0, 2)
        assert image.footprint_words == 2


@given(
    stores=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=0, max_value=(1 << 40)),
            st.sampled_from([1, 2, 4]),
        ),
        max_size=30,
    ),
    window=st.tuples(st.integers(min_value=0, max_value=64), st.integers(0, 24)),
)
@settings(max_examples=150, deadline=None)
def test_image_matches_a_byte_array(stores, window):
    """Aligned and unaligned stores, loads and line reads agree with plain bytes."""
    image = MemoryImage()
    memory = bytearray(96)
    for address, value, size in stores:
        image.store(address, value, size)
        memory[address : address + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )
    start, length = window
    assert image.line_bytes(start, length) == bytes(memory[start : start + length])
    for size in (1, 2, 4):
        assert image.load(start, size) == int.from_bytes(memory[start : start + size], "little")
