"""Memory access events.

Every simulator in this package — the instruction-set simulator, the cache
model, the synthetic workload generators — speaks the same vocabulary: a
stream of memory accesses.  An access records *when* it happened (a logical
timestamp, usually the instruction index or cycle), *where* (a byte
address), *how wide* it was, whether it was a read or a write, and which
address space it targeted (data or instruction).

A :class:`~repro.trace.trace.Trace` holds that stream as columns;
:class:`MemoryAccess` is the per-row view that iterating a trace yields, and
the event a test or a user builds by hand (see ``Trace.from_events``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["AccessKind", "AddressSpace", "MemoryAccess"]


class AccessKind(enum.Enum):
    """Direction of a memory access."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def from_str(cls, text: str) -> "AccessKind":
        """Parse ``"R"``/``"W"`` (case-insensitive) into an :class:`AccessKind`."""
        normalized = text.strip().upper()
        for kind in cls:
            if kind.value == normalized:
                return kind
        raise ValueError(f"unknown access kind: {text!r}")


class AddressSpace(enum.Enum):
    """Which address space an access belongs to."""

    DATA = "D"
    INSTRUCTION = "I"

    @classmethod
    def from_str(cls, text: str) -> "AddressSpace":
        """Parse ``"D"``/``"I"`` (case-insensitive) into an :class:`AddressSpace`."""
        normalized = text.strip().upper()
        for space in cls:
            if space.value == normalized:
                return space
        raise ValueError(f"unknown address space: {text!r}")


@dataclass(frozen=True)
class MemoryAccess:
    """A single memory reference.

    Parameters
    ----------
    time:
        Logical timestamp.  Monotonically non-decreasing within a trace;
        usually the issuing instruction's index.
    address:
        Byte address of the access.  Must be non-negative.
    size:
        Access width in bytes (1, 2, 4, ... ).
    kind:
        :class:`AccessKind.READ` or :class:`AccessKind.WRITE`.
    space:
        :class:`AddressSpace.DATA` (default) or
        :class:`AddressSpace.INSTRUCTION`.
    value:
        Optional data payload.  Carried only when a downstream consumer needs
        content (e.g. compression experiments); ``None`` otherwise so that
        address-only traces stay lightweight.
    """

    time: int
    address: int
    size: int = 4
    kind: AccessKind = AccessKind.READ
    space: AddressSpace = AddressSpace.DATA
    value: int | None = None

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.time < 0:
            raise ValueError(f"time must be non-negative, got {self.time}")

    @property
    def is_read(self) -> bool:
        """``True`` when this access is a read."""
        return self.kind is AccessKind.READ

    @property
    def is_write(self) -> bool:
        """``True`` when this access is a write."""
        return self.kind is AccessKind.WRITE

    @property
    def end_address(self) -> int:
        """One past the last byte touched by this access."""
        return self.address + self.size

    def block(self, block_size: int) -> int:
        """Index of the memory block of ``block_size`` bytes containing this access."""
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        return self.address // block_size
