"""Sparse memory image: word-addressable value store.

The cache simulator tracks tags, not contents.  Experiments that need line
*contents* (the compression study) maintain a :class:`MemoryImage` alongside
the cache: every store in the trace updates the image, and when the cache
reports a write-back or refill the image supplies the line's bytes.
"""

from __future__ import annotations

__all__ = ["MemoryImage"]


class MemoryImage:
    """Sparse little-endian byte store keyed by 32-bit-aligned words.

    Unwritten locations read as zero, matching a zero-initialized RAM.
    """

    def __init__(self) -> None:
        self._words: dict[int, int] = {}

    def store(self, address: int, value: int, size: int = 4) -> None:
        """Write ``size`` bytes of ``value`` (little-endian) at ``address``."""
        if size not in (1, 2, 4):
            raise ValueError(f"size must be 1, 2, or 4, got {size}")
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        value &= (1 << (8 * size)) - 1
        if size == 4 and address & 3 == 0:
            self._words[address] = value  # the whole aligned word
            return
        for offset, byte in enumerate(value.to_bytes(size, "little")):
            word_address = (address + offset) & ~3
            shift = ((address + offset) & 3) * 8
            word = self._words.get(word_address, 0)
            word = (word & ~(0xFF << shift)) | (byte << shift)
            self._words[word_address] = word

    def load(self, address: int, size: int = 4) -> int:
        """Read ``size`` bytes (little-endian) from ``address``."""
        if size not in (1, 2, 4):
            raise ValueError(f"size must be 1, 2, or 4, got {size}")
        return int.from_bytes(self.line_bytes(address, size), "little")

    def line_bytes(self, line_address: int, line_size: int) -> bytes:
        """The ``line_size`` bytes starting at ``line_address``."""
        start = line_address & ~3
        words = self._words
        raw = b"".join(
            words.get(address, 0).to_bytes(4, "little")
            for address in range(start, line_address + line_size, 4)
        )
        return raw[line_address - start : line_address - start + line_size]

    def write_line(self, line_address: int, payload: bytes) -> None:
        """Overwrite a line with ``payload`` (used when replaying refills)."""
        for offset, byte in enumerate(payload):
            self.store(line_address + offset, byte, size=1)

    @property
    def footprint_words(self) -> int:
        """Number of words ever written."""
        return len(self._words)
