"""Analytic cost model shared by all partitioners.

The partitioners never simulate: they minimize a closed-form energy objective
computed from per-block read/write counts (in layout order) and the SRAM and
decoder energy models.  The evaluator in :mod:`repro.partition.evaluate`
confirms the prediction by actually playing the trace through a
:class:`~repro.memory.PartitionedMemory`; analytic and simulated energies
agree exactly by construction (same models), which is itself asserted in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..memory.energy import DecoderEnergyModel, SRAMEnergyModel
from .spec import PartitionSpec

__all__ = ["PartitionCostModel"]


@dataclass
class PartitionCostModel:
    """Energy objective for a candidate partition.

    Parameters
    ----------
    reads, writes:
        Per-block read/write counts in **layout order** (position ``i`` is the
        ``i``-th block of the linearized layout the partition divides).
    block_size:
        Block granularity in bytes.
    sram_model, decoder_model:
        The energy models; must match whatever the evaluator uses.
    round_pow2:
        Whether bank capacities are rounded up to powers of two when pricing
        accesses (kept in sync with :class:`PartitionSpec.round_pow2`).
    leakage_cycles:
        When non-zero, every segment is additionally charged the leakage of
        its (possibly rounded) capacity over this many cycles.  With exact
        sizing the total capacity — hence total leakage — is
        partition-invariant; the term matters when ``round_pow2`` wastes
        capacity, steering the optimizer toward power-of-two-friendly cuts
        (the leakage-aware extension called out in DESIGN.md).
    """

    reads: np.ndarray
    writes: np.ndarray
    block_size: int
    sram_model: SRAMEnergyModel = field(default_factory=SRAMEnergyModel)
    decoder_model: DecoderEnergyModel = field(default_factory=DecoderEnergyModel)
    round_pow2: bool = False
    leakage_cycles: int = 0

    def __post_init__(self) -> None:
        self.reads = np.asarray(self.reads, dtype=np.int64)
        self.writes = np.asarray(self.writes, dtype=np.int64)
        for name, counts in (("reads", self.reads), ("writes", self.writes)):
            if counts.ndim != 1 or not len(counts):
                raise ValueError(
                    f"{name} must be a non-empty 1-D count array, got shape {counts.shape}"
                )
            negative = np.flatnonzero(counts < 0)
            if len(negative):
                index = int(negative[0])
                raise ValueError(f"{name}[{index}] is negative: {int(counts[index])}")
        if self.reads.shape != self.writes.shape:
            raise ValueError(
                f"reads {self.reads.shape} and writes {self.writes.shape} "
                f"must have the same length"
            )
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.leakage_cycles < 0:
            raise ValueError(f"leakage_cycles must be non-negative, got {self.leakage_cycles}")
        self._read_prefix = np.concatenate([[0], np.cumsum(self.reads)])
        self._write_prefix = np.concatenate([[0], np.cumsum(self.writes)])

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the layout."""
        return len(self.reads)

    @property
    def total_accesses(self) -> int:
        """Total accesses across all blocks."""
        return int(self._read_prefix[-1] + self._write_prefix[-1])

    def _bank_capacity(self, num_blocks: int) -> int:
        size = num_blocks * self.block_size
        if self.round_pow2:
            size = 1 << (size - 1).bit_length()
        return size

    def segment_cost(self, start: int, end: int) -> float:
        """Energy (pJ) of serving all accesses to blocks ``[start, end)`` from one bank."""
        if not 0 <= start < end <= self.num_blocks:
            raise ValueError(f"bad segment [{start}, {end})")
        capacity = self._bank_capacity(end - start)
        reads = int(self._read_prefix[end] - self._read_prefix[start])
        writes = int(self._write_prefix[end] - self._write_prefix[start])
        dynamic_pj = reads * self.sram_model.read_energy(capacity) + writes * self.sram_model.write_energy(
            capacity
        )
        if self.leakage_cycles:
            dynamic_pj += self.sram_model.leakage_energy(capacity, self.leakage_cycles)
        return dynamic_pj

    def segment_costs(self, edges: np.ndarray | list[int]) -> np.ndarray:
        """Energy (pJ) of every segment between a set of block edges, at once.

        ``edges`` is strictly increasing within ``[0, num_blocks]``.  Entry
        ``[i, j]`` of the ``len(edges)``-square result is
        ``segment_cost(edges[i], edges[j])`` bit for bit when ``i < j``, and
        ``inf`` otherwise: each distinct segment length is priced once
        through the same SRAM model calls, the counts are the same prefix
        differences, and each entry sums in the same float64 order.
        """
        edges = np.asarray(edges, dtype=np.int64)
        inside = np.all((edges >= 0) & (edges <= self.num_blocks))
        if edges.ndim != 1 or not inside or np.any(np.diff(edges) <= 0):
            raise ValueError(f"bad segment edges {edges.tolist()}")
        lengths = edges[None, :] - edges[:, None]
        upper = lengths > 0
        distinct, which = np.unique(lengths[upper], return_inverse=True)
        capacities = [self._bank_capacity(length) for length in distinct.tolist()]
        read_pj = np.array([self.sram_model.read_energy(c) for c in capacities])
        write_pj = np.array([self.sram_model.write_energy(c) for c in capacities])
        reads = (self._read_prefix[edges][None, :] - self._read_prefix[edges][:, None])[upper]
        writes = (self._write_prefix[edges][None, :] - self._write_prefix[edges][:, None])[upper]
        priced = reads * read_pj[which] + writes * write_pj[which]
        if self.leakage_cycles:
            leakage_pj = np.array(
                [self.sram_model.leakage_energy(c, self.leakage_cycles) for c in capacities]
            )
            priced += leakage_pj[which]
        segment = np.full(lengths.shape, np.inf)
        segment[upper] = priced
        return segment

    def decoder_cost(self, num_banks: int) -> float:
        """Total decoder energy (pJ): every access pays the selection overhead."""
        return self.total_accesses * self.decoder_model.access_energy(num_banks)

    def partition_cost(self, spec: PartitionSpec) -> float:
        """Total energy (pJ) of a partition: bank accesses + decoder."""
        if spec.total_blocks != self.num_blocks:
            raise ValueError(
                f"spec covers {spec.total_blocks} blocks, cost model has {self.num_blocks}"
            )
        edges = spec.boundaries()
        bank_pj = sum(
            self.segment_cost(edges[index], edges[index + 1]) for index in range(spec.num_banks)
        )
        return bank_pj + self.decoder_cost(spec.num_banks)

    def monolithic_cost(self) -> float:
        """Energy (pJ) of the single-bank baseline (no decoder overhead)."""
        return self.segment_cost(0, self.num_blocks)
