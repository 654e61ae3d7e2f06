"""Partition evaluation by trace simulation.

The partitioners optimize an analytic objective; this module closes the loop
by *simulating*: build the physical :class:`~repro.memory.PartitionedMemory`
described by a spec and play the (layout-space) trace through it.  Because
the analytic model and the simulator share the same energy models, the two
must agree — the test suite asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..memory.energy import DecoderEnergyModel, SRAMEnergyModel
from ..memory.partitioned import PartitionedMemory
from ..obs.recorder import Recorder
from ..trace.columnar import ColumnarTrace
from ..trace.trace import Trace
from .spec import PartitionSpec

__all__ = ["SimulatedPartitionEnergy", "build_memory", "simulate_partition"]


@dataclass(frozen=True)
class SimulatedPartitionEnergy:
    """Measured (simulated) energy of a partition on a trace."""

    bank_energy: float
    decoder_energy: float
    leakage_energy: float
    accesses: int
    bank_access_counts: tuple[int, ...]

    @property
    def total(self) -> float:
        """Total energy in pJ."""
        return self.bank_energy + self.decoder_energy + self.leakage_energy


def build_memory(
    spec: PartitionSpec,
    sram_model: SRAMEnergyModel | None = None,
    decoder_model: DecoderEnergyModel | None = None,
) -> PartitionedMemory:
    """Instantiate the physical memory described by ``spec`` (base address 0)."""
    return PartitionedMemory(
        spec.bank_sizes(),
        base=0,
        sram_model=sram_model,
        decoder_model=decoder_model,
    )


def simulate_partition(
    spec: PartitionSpec,
    layout_trace: Union[Trace, ColumnarTrace],
    sram_model: SRAMEnergyModel | None = None,
    decoder_model: DecoderEnergyModel | None = None,
    include_leakage: bool = False,
    recorder: Recorder | None = None,
) -> SimulatedPartitionEnergy:
    """Play a layout-space trace through the memory described by ``spec``.

    ``layout_trace`` addresses must already be remapped into the contiguous
    layout space ``[0, spec.total_bytes)`` — see
    :class:`repro.core.layout.BlockLayout`.  ``recorder`` is forwarded to
    :meth:`~repro.memory.partitioned.PartitionedMemory.play`.

    Note: when ``spec.round_pow2`` is set the physical banks are larger than
    the block extents, so accesses are routed by *physical* capacity.  To keep
    routing faithful to the spec we route by exact extents and only price
    energy with the rounded capacities — which is what the exact-extent
    memory below does, because :func:`build_memory` places banks back-to-back
    using the rounded sizes.  For routing fidelity, prefer unrounded specs
    when simulating (the cost model treats rounding identically either way).
    """
    if spec.round_pow2:
        # Simulate with exact extents for routing but rounded capacities for
        # energy: construct banks of rounded size, then translate addresses
        # from exact-extent space to the physical layout.
        return _simulate_rounded(
            spec, layout_trace, sram_model, decoder_model, include_leakage, recorder
        )
    memory = build_memory(spec, sram_model, decoder_model)
    report = memory.play(layout_trace, include_leakage=include_leakage, recorder=recorder)
    return SimulatedPartitionEnergy(
        bank_energy=report.bank_energy,
        decoder_energy=report.decoder_energy,
        leakage_energy=report.leakage_energy,
        accesses=report.accesses,
        bank_access_counts=tuple(memory.bank_access_counts()),
    )


def _simulate_rounded(
    spec: PartitionSpec,
    layout_trace: Union[Trace, ColumnarTrace],
    sram_model: SRAMEnergyModel | None,
    decoder_model: DecoderEnergyModel | None,
    include_leakage: bool,
    recorder: Recorder | None = None,
) -> SimulatedPartitionEnergy:
    memory = build_memory(spec, sram_model, decoder_model)
    exact_edges = [0]
    for blocks in spec.bank_blocks:
        exact_edges.append(exact_edges[-1] + blocks * spec.block_size)
    physical_bases = [bank.base for bank in memory.banks]
    translated = layout_trace.map_chunks(
        lambda chunk: _translate_columnar(chunk, exact_edges, physical_bases)
    )
    report = memory.play(translated, include_leakage=include_leakage, recorder=recorder)
    return SimulatedPartitionEnergy(
        bank_energy=report.bank_energy,
        decoder_energy=report.decoder_energy,
        leakage_energy=report.leakage_energy,
        accesses=report.accesses,
        bank_access_counts=tuple(memory.bank_access_counts()),
    )


def _translate_columnar(
    layout_trace: ColumnarTrace,
    exact_edges: list[int],
    physical_bases: list[int],
) -> ColumnarTrace:
    """Exact-extent → physical-bank address translation of one chunk.

    One ``searchsorted`` against the exact upper edges finds each address's
    bank, which rebases it into the physical bank; out-of-range addresses
    clamp to the last bank.
    """
    uppers = np.asarray(exact_edges[1:], dtype=np.int64)
    lowers = np.asarray(exact_edges[:-1], dtype=np.int64)
    bases = np.asarray(physical_bases, dtype=np.int64)
    bank_ids = np.minimum(
        np.searchsorted(uppers, layout_trace.addresses, side="right"),
        len(uppers) - 1,
    )
    return ColumnarTrace(
        addresses=bases[bank_ids] + (layout_trace.addresses - lowers[bank_ids]),
        timestamps=layout_trace.timestamps,
        kinds=layout_trace.kinds,
        sizes=layout_trace.sizes,
        spaces=layout_trace.spaces,
        values=layout_trace.values,
        value_mask=layout_trace.value_mask,
        name=layout_trace.name,
    )
