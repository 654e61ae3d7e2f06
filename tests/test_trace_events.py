"""Unit tests for memory access events."""

import pytest

from repro.trace import AccessKind, AddressSpace, MemoryAccess


class TestAccessKind:
    def test_from_str_read(self):
        assert AccessKind.from_str("R") is AccessKind.READ
        assert AccessKind.from_str("r") is AccessKind.READ

    def test_from_str_write(self):
        assert AccessKind.from_str("W") is AccessKind.WRITE

    def test_from_str_rejects_garbage(self):
        with pytest.raises(ValueError):
            AccessKind.from_str("X")


class TestAddressSpace:
    def test_from_str(self):
        assert AddressSpace.from_str("D") is AddressSpace.DATA
        assert AddressSpace.from_str("i") is AddressSpace.INSTRUCTION

    def test_from_str_rejects_garbage(self):
        with pytest.raises(ValueError):
            AddressSpace.from_str("Z")


class TestMemoryAccess:
    def test_defaults(self):
        event = MemoryAccess(time=0, address=0x100)
        assert event.size == 4
        assert event.is_read and not event.is_write
        assert event.space is AddressSpace.DATA
        assert event.value is None

    def test_end_address(self):
        event = MemoryAccess(time=0, address=0x100, size=2)
        assert event.end_address == 0x102

    def test_block(self):
        event = MemoryAccess(time=0, address=100)
        assert event.block(32) == 3
        assert event.block(4) == 25

    def test_block_rejects_nonpositive(self):
        event = MemoryAccess(time=0, address=100)
        with pytest.raises(ValueError):
            event.block(0)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(time=0, address=-1)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(time=0, address=0, size=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(time=-1, address=0)

    def test_frozen(self):
        event = MemoryAccess(time=0, address=0)
        with pytest.raises(AttributeError):
            event.address = 5
