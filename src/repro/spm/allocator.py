"""Scratchpad-memory (SPM) allocation.

Scratchpads are the other classic embedded memory-energy lever of this era
(Panda/Dutt/Nicolau; also 10F in the same proceedings): a small
software-managed SRAM mapped into the address space.  An access that hits
the SPM costs one small-SRAM access — no tag check, no miss, no off-chip
traffic — so the allocation problem is to pick which blocks live there.

With uniform block sizes the 0/1 knapsack degenerates to *top-k by benefit*;
the benefit of a block is its access count times the per-access saving.  The
allocator still exposes a knapsack-style interface (benefit model, capacity)
so non-uniform objects can be added later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..memory.energy import SRAMEnergyModel
from ..obs.counters import SPM_BENEFIT_PJ, SPM_BLOCKS
from ..obs.recorder import Recorder
from ..obs.spans import span
from ..trace.profile import AccessProfile

__all__ = ["SPMConfig", "SPMAllocation", "SPMAllocator"]


@dataclass(frozen=True)
class SPMConfig:
    """Scratchpad geometry and energy.

    Parameters
    ----------
    size:
        Capacity in bytes.
    sram_model:
        Model pricing the SPM's own accesses (as a ``size``-byte SRAM).
    """

    size: int = 2048
    sram_model: SRAMEnergyModel = field(default_factory=SRAMEnergyModel)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"SPM size must be positive, got {self.size}")

    def access_energy(self) -> float:
        """Energy (pJ) of one SPM access (reads ≈ writes at this size)."""
        return self.sram_model.read_energy(self.size)


@dataclass
class SPMAllocation:
    """Outcome of an allocation: which blocks live in the SPM."""

    blocks: frozenset
    block_size: int
    config: SPMConfig
    predicted_benefit: float

    @property
    def bytes_used(self) -> int:
        """Bytes of SPM capacity consumed."""
        return len(self.blocks) * self.block_size

    def holds(self, address: int) -> bool:
        """Whether ``address`` is served by the SPM."""
        return address // self.block_size in self.blocks


class SPMAllocator:
    """Profile-driven SPM allocator.

    Parameters
    ----------
    config:
        The scratchpad being filled.
    cache_path_energy:
        Estimated energy (pJ) of one access through the cached path (cache
        lookup amortizing misses).  The default is calibrated against the
        RISC platform preset; pass a measured value for other platforms.
    """

    def __init__(self, config: SPMConfig, cache_path_energy: float = 12.0) -> None:
        if cache_path_energy <= 0:
            raise ValueError(
                f"cache_path_energy must be positive, got {cache_path_energy}"
            )
        self.config = config
        self.cache_path_energy = cache_path_energy

    def allocate(
        self, profile: AccessProfile, recorder: Recorder | None = None
    ) -> SPMAllocation:
        """Pick the block set maximizing predicted energy benefit.

        ``recorder`` brackets the allocation in an ``spm_alloc`` span and
        receives the block count and predicted benefit.
        """
        with span(recorder, "spm_alloc", capacity_bytes=self.config.size):
            allocation = self._allocate(profile)
        if recorder is not None and recorder.enabled:
            recorder.counter(SPM_BLOCKS, len(allocation.blocks))
            recorder.counter(SPM_BENEFIT_PJ, allocation.predicted_benefit)
        return allocation

    def _allocate(self, profile: AccessProfile) -> SPMAllocation:
        """Allocation body: exact top-k blocks by access count.

        One ``lexsort`` on ``(-count, block)`` ranks the blocks, so ties
        break deterministically towards the lower block index.
        """
        saving_pj = self.cache_path_energy - self.config.access_energy()
        capacity_blocks = self.config.size // profile.block_size
        chosen: list[int] = []
        benefit_pj = 0.0
        if saving_pj > 0 and capacity_blocks > 0:
            counts = profile.access_counts()
            blocks = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
            totals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
            picked = np.lexsort((blocks, -totals))[:capacity_blocks]
            chosen = blocks[picked].tolist()
            benefit_pj = saving_pj * int(totals[picked].sum())
        return SPMAllocation(
            blocks=frozenset(chosen),
            block_size=profile.block_size,
            config=self.config,
            predicted_benefit=benefit_pj,
        )
