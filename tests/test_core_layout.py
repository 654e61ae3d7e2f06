"""Unit tests for block layouts."""

import pytest

from repro.core import BlockLayout
from repro.trace import AccessKind, AccessProfile, MemoryAccess, Trace


def simple_profile():
    events = [
        MemoryAccess(time=0, address=0x00),
        MemoryAccess(time=1, address=0x40, kind=AccessKind.WRITE),
        MemoryAccess(time=2, address=0x100),
        MemoryAccess(time=3, address=0x44),
    ]
    return AccessProfile(Trace.from_events(events), block_size=32)


class TestLayoutBasics:
    def test_identity_preserves_order(self):
        profile = simple_profile()
        layout = BlockLayout.identity(profile)
        assert layout.order == [0, 2, 8]
        assert layout.num_blocks == 3
        assert layout.total_bytes == 96

    def test_duplicate_blocks_rejected(self):
        with pytest.raises(ValueError):
            BlockLayout([1, 1], block_size=32)

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            BlockLayout([0], block_size=0)

    def test_contains_and_position(self):
        layout = BlockLayout([5, 3, 9], block_size=32)
        assert 3 in layout and 4 not in layout
        assert layout.position_of(3) == 1
        with pytest.raises(KeyError):
            layout.position_of(4)

    def test_equality(self):
        assert BlockLayout([1, 2], 32) == BlockLayout([1, 2], 32)
        assert BlockLayout([1, 2], 32) != BlockLayout([2, 1], 32)


class TestRemapping:
    def test_remap_address_is_dense(self):
        layout = BlockLayout([8, 0, 2], block_size=32)
        # block 8 -> position 0, block 0 -> position 1, block 2 -> position 2
        assert layout.remap_address(8 * 32) == 0
        assert layout.remap_address(8 * 32 + 12) == 12
        assert layout.remap_address(0) == 32
        assert layout.remap_address(2 * 32 + 4) == 68

    def test_remap_is_injective_over_blocks(self):
        layout = BlockLayout([4, 1, 7, 2], block_size=16)
        images = {layout.remap_address(block * 16) for block in [4, 1, 7, 2]}
        assert len(images) == 4
        assert images == {0, 16, 32, 48}

    def test_remap_trace(self):
        profile = simple_profile()
        layout = BlockLayout.identity(profile)
        remapped = layout.remap_trace(profile.trace)
        addresses = [event.address for event in remapped]
        # blocks 0,2,8 -> positions 0,1,2; offsets preserved
        assert addresses == [0x00, 0x20, 0x40, 0x24]

    def test_remap_preserves_kind(self):
        profile = simple_profile()
        layout = BlockLayout.identity(profile)
        remapped = layout.remap_trace(profile.trace)
        assert list(remapped)[1].is_write

    def test_unknown_block_raises(self):
        layout = BlockLayout([0], block_size=32)
        with pytest.raises(KeyError):
            layout.remap_address(0x100)


class TestCountsInOrder:
    def test_counts_follow_layout_order(self):
        profile = simple_profile()
        layout = BlockLayout([8, 2, 0], block_size=32)
        reads, writes = layout.counts_in_order(profile)
        # block 8: 1 read; block 2: 1 write + 1 read; block 0: 1 read
        assert list(reads) == [1, 1, 1]
        assert list(writes) == [0, 1, 0]

    def test_missing_blocks_count_zero(self):
        profile = simple_profile()
        layout = BlockLayout([8, 2, 0, 99], block_size=32)
        reads, writes = layout.counts_in_order(profile)
        assert reads[3] == 0 and writes[3] == 0
