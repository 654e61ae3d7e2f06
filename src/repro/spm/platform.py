"""SPM-augmented platform: scratchpad + D-cache + memory.

Evaluates an :class:`~repro.spm.allocator.SPMAllocation` by replaying a data
trace: SPM-mapped accesses cost one scratchpad access; everything else goes
through the usual D-cache → bus → DRAM path (shared with
:class:`repro.platforms.Platform` semantics).  An initial fill of the SPM
contents from main memory is charged up front — scratchpads are
software-loaded, and ignoring the fill would flatter small, rarely-reused
allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bus.bus import Bus
from ..cache.cache import Cache, CacheConfig, CacheStats
from ..memory.energy import BusEnergyModel, DRAMEnergyModel, SRAMEnergyModel
from ..memory.mainmem import MainMemory
from ..platforms.breakdown import EnergyBreakdown, check_report
from ..trace.trace import Trace
from .allocator import SPMAllocation

__all__ = ["SPMPlatformReport", "SPMPlatform"]


@dataclass
class SPMPlatformReport:
    """Measurements of one SPM-platform run."""

    breakdown: EnergyBreakdown
    spm_accesses: int
    cached_accesses: int
    dcache_stats: CacheStats

    def __post_init__(self) -> None:
        check_report(
            "SPMPlatformReport",
            self.breakdown,
            spm_accesses=self.spm_accesses,
            cached_accesses=self.cached_accesses,
            dcache_accesses=self.dcache_stats.accesses,
        )

    @property
    def spm_coverage(self) -> float:
        """Fraction of data accesses served by the scratchpad."""
        total = self.spm_accesses + self.cached_accesses
        return self.spm_accesses / total if total else 0.0


class SPMPlatform:
    """Data-side platform with a scratchpad in front of the cache path."""

    def __init__(
        self,
        dcache: CacheConfig | None = None,
        sram_model: SRAMEnergyModel | None = None,
        bus_energy: BusEnergyModel | None = None,
        dram: DRAMEnergyModel | None = None,
    ) -> None:
        self.dcache_config = dcache if dcache is not None else CacheConfig(size=1024, line_size=32, ways=2)
        self.sram_model = sram_model if sram_model is not None else SRAMEnergyModel()
        self.bus_energy = bus_energy if bus_energy is not None else BusEnergyModel.off_chip()
        self.dram = dram if dram is not None else DRAMEnergyModel()

    def run_traces(
        self, data_trace: Trace, allocation: SPMAllocation | None = None
    ) -> SPMPlatformReport:
        """Replay ``data_trace``; SPM-mapped accesses bypass the cache path."""
        dcache = Cache(self.dcache_config, energy_model=self.sram_model, name="dcache")
        bus = Bus(width=32, energy_model=self.bus_energy)
        memory = MainMemory(model=self.dram, line_bytes=self.dcache_config.line_size)
        breakdown = EnergyBreakdown()
        spm_accesses = 0
        cached_accesses = 0

        if allocation is not None and allocation.blocks:
            # Software fill: burst every SPM-resident block in from memory
            # once, writing it into the scratchpad.
            fill_bytes = allocation.bytes_used
            breakdown.dram += memory.read_burst(fill_bytes)
            breakdown.bus += bus.drive_bytes(bytes(fill_bytes))
            breakdown.spm += (
                allocation.config.sram_model.write_energy(allocation.config.size)
                * (fill_bytes // 4)
            )

        spm_energy_per_access = (
            allocation.config.access_energy() if allocation is not None else 0.0
        )
        for event in data_trace:
            if allocation is not None and allocation.holds(event.address):
                spm_accesses += 1
                breakdown.spm += spm_energy_per_access
                continue
            cached_accesses += 1
            result = dcache.access(event.address, is_write=event.is_write)
            for transfer in result.transfers:
                if transfer.is_writeback:
                    breakdown.dram += memory.write_burst(transfer.size)
                else:
                    breakdown.dram += memory.read_burst(transfer.size)
                breakdown.bus += bus.drive_bytes(bytes(transfer.size))
        for transfer in dcache.flush():
            breakdown.dram += memory.write_burst(transfer.size)
            breakdown.bus += bus.drive_bytes(bytes(transfer.size))
        breakdown.dcache = dcache.lookup_energy_total

        return SPMPlatformReport(
            breakdown=breakdown,
            spm_accesses=spm_accesses,
            cached_accesses=cached_accesses,
            dcache_stats=dcache.stats,
        )

    def measured_cache_path_energy(self, data_trace: Trace) -> float:
        """Mean per-access energy of the pure cached path on this trace.

        Feed this into :class:`~repro.spm.allocator.SPMAllocator` to calibrate
        the benefit model against the actual platform and workload.
        """
        report = self.run_traces(data_trace, allocation=None)
        if not len(data_trace):
            return 0.0
        return report.breakdown.total / len(data_trace)
