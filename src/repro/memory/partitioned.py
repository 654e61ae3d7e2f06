"""Partitioned (multi-bank) and monolithic on-chip memories.

A :class:`PartitionedMemory` is an ordered set of banks covering a contiguous
address window, plus a bank-selection decoder whose energy grows with the
number of banks.  Playing a trace through the memory yields per-bank access
counts and total energy — the objective function of the partitioning and
clustering algorithms.

:class:`MonolithicMemory` is the single-bank baseline the 1B-1 paper compares
against (one big SRAM, no decoder overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..obs.counters import PLAY_BANK_HITS, PLAY_ENERGY_PJ, PLAY_EVENTS
from ..obs.spans import current_recorder
from ..trace.columnar import assign_banks, per_bank_read_write_counts
from ..trace.events import MemoryAccess
from ..trace.trace import Trace
from .bank import MemoryBank
from .energy import DecoderEnergyModel, SRAMEnergyModel

__all__ = [
    "PartitionedMemory",
    "MonolithicMemory",
    "MemoryEnergyReport",
    "AccessOutsideMemoryError",
]


class AccessOutsideMemoryError(LookupError):
    """Raised when an address falls outside every bank of a memory."""


@dataclass
class MemoryEnergyReport:
    """Outcome of playing a trace through a memory."""

    bank_energy: float
    decoder_energy: float
    leakage_energy: float
    accesses: int

    def __post_init__(self) -> None:
        for name in ("bank_energy", "decoder_energy", "leakage_energy", "accesses"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"MemoryEnergyReport.{name} must be >= 0, got {value!r}")

    @property
    def total(self) -> float:
        """Total energy in pJ."""
        return self.bank_energy + self.decoder_energy + self.leakage_energy


class PartitionedMemory:
    """A multi-bank memory over a contiguous address window.

    Parameters
    ----------
    bank_sizes:
        Capacity of each bank in bytes, in address order.  Bank ``i`` serves
        the address range ``[base + sum(sizes[:i]), base + sum(sizes[:i+1]))``.
    base:
        First address of the memory window.
    sram_model, decoder_model:
        Energy models.  The decoder cost is charged once per access.
    """

    def __init__(
        self,
        bank_sizes: Iterable[int],
        base: int = 0,
        sram_model: SRAMEnergyModel | None = None,
        decoder_model: DecoderEnergyModel | None = None,
    ) -> None:
        sizes = list(bank_sizes)
        if not sizes:
            raise ValueError(f"at least one bank is required, got bank_sizes={sizes!r}")
        self.base = base
        self.sram_model = sram_model if sram_model is not None else SRAMEnergyModel()
        self.decoder_model = decoder_model if decoder_model is not None else DecoderEnergyModel()
        self.banks: list[MemoryBank] = []
        cursor = base
        for index, size in enumerate(sizes):
            self.banks.append(
                MemoryBank(base=cursor, size=size, model=self.sram_model, name=f"bank{index}")
            )
            cursor += size
        self.limit = cursor
        self._decoder_energy = 0.0

    @property
    def num_banks(self) -> int:
        """Number of banks."""
        return len(self.banks)

    @property
    def size(self) -> int:
        """Total capacity in bytes."""
        return self.limit - self.base

    def bank_for(self, address: int) -> MemoryBank:
        """Bank serving ``address`` (binary search over the ordered banks)."""
        if not self.base <= address < self.limit:
            raise AccessOutsideMemoryError(
                f"address {address:#x} outside memory [{self.base:#x}, {self.limit:#x})"
            )
        low, high = 0, len(self.banks) - 1
        while low < high:
            mid = (low + high) // 2
            if address < self.banks[mid].limit:
                high = mid
            else:
                low = mid + 1
        return self.banks[low]

    def access(self, event: MemoryAccess) -> float:
        """Route one access; return its energy (bank + decoder) in pJ."""
        bank = self.bank_for(event.address)
        bank_pj = bank.write() if event.is_write else bank.read()
        decoder_pj = self.decoder_model.access_energy(self.num_banks)
        self._decoder_energy += decoder_pj
        return bank_pj + decoder_pj

    def play(self, trace: Trace, include_leakage: bool = False) -> MemoryEnergyReport:
        """Play a whole trace; return the energy report.

        When ``include_leakage`` is set, every bank leaks for the full trace
        duration (timestamp span), which penalizes over-provisioned banks.

        One vectorized pass per columnar chunk (``trace.chunks()``): bank
        assignment via ``searchsorted``, per-bank read/write counts via
        ``bincount``, accumulated as integers, so the per-bank counters after
        the last chunk are the same whatever the chunking and the report —
        assembled by :meth:`_report_from_counters` — is bit-identical too.
        Peak memory is bounded by the chunk size, not the trace length.
        Addresses are validated chunk by chunk, so a trace that raises
        :class:`AccessOutsideMemoryError` leaves the counters reset.

        The active recorder receives per-call counters (events played, bank
        hit distribution, energy components); counters are flushed once per
        play from totals the report needs anyway, so an enabled recorder
        never changes the result and a disabled one costs one flag check.
        """
        self.reset_counters()
        bank_bases = np.fromiter((bank.base for bank in self.banks), dtype=np.int64)
        bank_limits = np.fromiter((bank.limit for bank in self.banks), dtype=np.int64)
        reads = np.zeros(self.num_banks, dtype=np.int64)
        writes = np.zeros(self.num_banks, dtype=np.int64)
        accesses = 0
        first_time = None
        last_time = None
        for chunk in trace.chunks():
            if not len(chunk):
                continue
            try:
                bank_ids = assign_banks(chunk.addresses, bank_bases, bank_limits)
            except ValueError:
                outside = (chunk.addresses < self.base) | (chunk.addresses >= self.limit)
                offender = int(chunk.addresses[np.argmax(outside)])
                self.reset_counters()
                raise AccessOutsideMemoryError(
                    f"address {offender:#x} outside memory "
                    f"[{self.base:#x}, {self.limit:#x})"
                ) from None
            chunk_reads, chunk_writes = per_bank_read_write_counts(
                bank_ids, chunk.kinds, self.num_banks
            )
            reads += chunk_reads
            writes += chunk_writes
            accesses += len(chunk)
            if first_time is None:
                first_time = int(chunk.timestamps[0])
            last_time = int(chunk.timestamps[-1])
        for bank, bank_reads, bank_writes in zip(self.banks, reads, writes):
            bank.reads = int(bank_reads)
            bank.writes = int(bank_writes)
        duration_cycles = 0
        if first_time is not None:
            duration_cycles = last_time - first_time + 1
        return self._report_from_counters(accesses, duration_cycles, include_leakage)

    def _report_from_counters(
        self, accesses: int, duration_cycles: int, include_leakage: bool
    ) -> MemoryEnergyReport:
        """Assemble the energy report from the per-bank counters.

        This is the single definition of the playback arithmetic: the
        chunked kernel and the per-event reference in
        ``tests/playback_oracle.py`` both land here with identical counters,
        which is what makes their reports bit-identical.  Observability
        counters are emitted here too — after the arithmetic, from the same
        totals the report carries, so recording cannot perturb results.
        """
        bank_pj = sum(bank.dynamic_energy for bank in self.banks)
        decoder_pj = accesses * self.decoder_model.access_energy(self.num_banks)
        self._decoder_energy = decoder_pj
        leakage_pj = 0.0
        if include_leakage and accesses:
            leakage_pj = sum(bank.leakage_energy(duration_cycles) for bank in self.banks)
        recorder = current_recorder()
        if recorder.enabled:
            recorder.counter(PLAY_EVENTS, accesses)
            for index, bank in enumerate(self.banks):
                recorder.counter(PLAY_BANK_HITS, bank.accesses, bank=index)
            recorder.counter(PLAY_ENERGY_PJ, bank_pj, component="bank")
            recorder.counter(PLAY_ENERGY_PJ, decoder_pj, component="decoder")
            recorder.counter(PLAY_ENERGY_PJ, leakage_pj, component="leakage")
        return MemoryEnergyReport(
            bank_energy=bank_pj,
            decoder_energy=decoder_pj,
            leakage_energy=leakage_pj,
            accesses=accesses,
        )

    def reset_counters(self) -> None:
        """Zero all access counters."""
        for bank in self.banks:
            bank.reset_counters()
        self._decoder_energy = 0.0

    @property
    def decoder_energy(self) -> float:
        """Accumulated decoder energy (pJ)."""
        return self._decoder_energy

    def bank_access_counts(self) -> list[int]:
        """Accesses per bank, in address order."""
        return [bank.accesses for bank in self.banks]


class MonolithicMemory(PartitionedMemory):
    """Single-bank baseline: one SRAM covering the whole window, no decoder."""

    def __init__(self, size: int, base: int = 0, sram_model: SRAMEnergyModel | None = None) -> None:
        super().__init__(
            [size],
            base=base,
            sram_model=sram_model,
            decoder_model=DecoderEnergyModel(e_per_select_bit=0.0, e_per_bank_wire=0.0),
        )
