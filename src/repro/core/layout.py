"""Block layouts: linear arrangements of memory blocks.

Address clustering does not change *what* a program accesses, only *where*
those blocks live in physical memory.  A :class:`BlockLayout` is a linear
order of the distinct blocks a trace touches; it induces a bijective address
remapping from the original (sparse) address space into a dense layout space
``[0, num_blocks * block_size)`` that the partitioned memory then serves.

The identity layout keeps blocks in their original address order (what a
linker produced); clustering strategies permute them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..trace.columnar import ColumnarTrace
from ..trace.profile import AccessProfile
from ..trace.trace import Trace

__all__ = ["BlockLayout"]


class BlockLayout:
    """A linear arrangement of memory blocks.

    Parameters
    ----------
    order:
        Original block indices in layout order; must be unique.
    block_size:
        Block granularity in bytes.
    name:
        Label of the strategy that produced the layout.
    """

    def __init__(self, order: Sequence[int], block_size: int, name: str = "layout") -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.order = list(order)
        self.block_size = block_size
        self.name = name
        self._position = {block: position for position, block in enumerate(self.order)}
        if len(self._position) != len(self.order):
            raise ValueError(
                f"layout order contains "
                f"{len(self.order) - len(self._position)} duplicate blocks"
            )

    @classmethod
    def identity(cls, profile: AccessProfile) -> "BlockLayout":
        """Layout preserving original address order (the no-clustering baseline)."""
        return cls(profile.blocks, profile.block_size, name="identity")

    # -- queries --------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the layout."""
        return len(self.order)

    @property
    def total_bytes(self) -> int:
        """Size of the dense layout address space."""
        return self.num_blocks * self.block_size

    def position_of(self, block: int) -> int:
        """Layout position of an original block (KeyError if absent)."""
        return self._position[block]

    def __contains__(self, block: int) -> bool:
        return block in self._position

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockLayout):
            return NotImplemented
        return self.order == other.order and self.block_size == other.block_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockLayout(name={self.name!r}, blocks={self.num_blocks})"

    # -- remapping ------------------------------------------------------------

    def remap_address(self, address: int) -> int:
        """Map an original byte address into layout space."""
        block, offset = divmod(address, self.block_size)
        return self._position[block] * self.block_size + offset

    def remap_trace(self, trace: Trace) -> Trace:
        """Remap every event of ``trace`` into layout space."""
        return trace.remap(self.remap_address, name=f"{trace.name}@{self.name}")

    def remap_columnar(self, columnar: ColumnarTrace) -> ColumnarTrace:
        """Vectorized :meth:`remap_trace` over a columnar trace.

        Position lookup is one ``searchsorted`` against the sorted block
        order; addresses of blocks absent from the layout raise ``KeyError``
        exactly like :meth:`remap_address`.
        """
        blocks = columnar.addresses // self.block_size
        offsets = columnar.addresses - blocks * self.block_size
        order_array = np.asarray(self.order, dtype=np.int64)
        if not len(columnar):
            return ColumnarTrace.from_arrays(
                [], [], name=f"{columnar.name}@{self.name}"
            )
        if not len(order_array):
            raise KeyError(int(blocks[0]))
        sort_order = np.argsort(order_array, kind="stable")
        sorted_blocks = order_array[sort_order]
        index = np.searchsorted(sorted_blocks, blocks)
        clipped = np.minimum(index, len(sorted_blocks) - 1)
        missing = (index >= len(sorted_blocks)) | (sorted_blocks[clipped] != blocks)
        if np.any(missing):
            raise KeyError(int(blocks[np.argmax(missing)]))
        positions = sort_order[clipped]
        return ColumnarTrace(
            addresses=positions * self.block_size + offsets,
            timestamps=columnar.timestamps,
            kinds=columnar.kinds,
            sizes=columnar.sizes,
            spaces=columnar.spaces,
            values=columnar.values,
            value_mask=columnar.value_mask,
            name=f"{columnar.name}@{self.name}",
        )

    def counts_in_order(self, profile: AccessProfile) -> tuple[np.ndarray, np.ndarray]:
        """Per-block ``(reads, writes)`` arrays aligned with the layout order."""
        reads = np.zeros(self.num_blocks, dtype=np.int64)
        writes = np.zeros(self.num_blocks, dtype=np.int64)
        for position, block in enumerate(self.order):
            try:
                stats = profile.stats(block)
            except KeyError:
                continue
            reads[position] = stats.reads
            writes[position] = stats.writes
        return reads, writes
