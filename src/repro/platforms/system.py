"""System platform models: CPU traffic → caches → off-chip bus → main memory.

This is the substrate of the data-compression experiment (E2).  A
:class:`Platform` wires together:

* an I-cache and a D-cache (from :mod:`repro.cache`),
* an off-chip data bus with content-accurate transition counting,
* burst-oriented main memory,
* and optionally a :class:`~repro.compress.CompressionUnit` sitting between
  the D-cache and the bus — the 1B-2 architecture: dirty lines are
  compressed on write-back, and refills of lines that live compressed in
  memory are decompressed on the way in.

Two presets reproduce the paper's platforms:

* :func:`risc_platform` — MIPS/SimpleScalar class: single-issue, modest
  caches;
* :func:`vliw_platform` — Lx-ST200 class: 4-issue, larger I-cache (wide
  fetch), same D-side structure.

Line *contents* are tracked in a :class:`~repro.cache.MemoryImage` kept
up-to-date from store values in the trace, so compression ratios are
measured on real data, not placeholders.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..bus.bus import Bus
from ..cache.cache import Cache, CacheConfig, CacheStats
from ..cache.image import MemoryImage
from ..compress.base import LineCodec
from ..compress.differential import DifferentialCodec
from ..compress.unit import CompressionUnit, UnitStats
from ..isa.assembler import Program
from ..isa.cpu import CPU
from ..memory.energy import BusEnergyModel, DRAMEnergyModel, SRAMEnergyModel
from ..memory.mainmem import MainMemory
from ..obs.counters import COMPRESS_OFFCHIP_BYTES, PLATFORM_ENERGY_PJ
from ..obs.spans import current_recorder, span
from ..trace.trace import KIND_WRITE, Trace
from .breakdown import EnergyBreakdown, check_report

__all__ = [
    "PlatformConfig",
    "PlatformReport",
    "Platform",
    "default_codec",
    "risc_platform",
    "vliw_platform",
]


@dataclass
class PlatformConfig:
    """Structural, energy, and timing parameters of a platform.

    Timing is a simple in-order model: one cycle per issued operation slot
    (instructions / ``issue_width``), a fixed miss penalty per cache miss,
    extra cycles per burst word at the memory interface, and — when
    compression is on — the decompression pipeline latency on every refill
    of a compressed line.  Write-back compression is off the critical path
    (it drains through a store buffer) and costs no cycles, matching the
    1B-2 paper's design argument.
    """

    name: str = "generic"
    issue_width: int = 1
    icache: CacheConfig = field(default_factory=lambda: CacheConfig(size=8 * 1024, line_size=32))
    dcache: CacheConfig = field(default_factory=lambda: CacheConfig(size=2 * 1024, line_size=32))
    bus_width: int = 32
    bus_energy: BusEnergyModel = field(default_factory=BusEnergyModel.off_chip)
    dram: DRAMEnergyModel = field(default_factory=DRAMEnergyModel)
    sram: SRAMEnergyModel = field(default_factory=SRAMEnergyModel)
    codec: LineCodec | None = None  # None = compression disabled
    miss_penalty_cycles: int = 20
    cycles_per_burst_word: int = 2
    # Fetch path (paper 1B-3 territory): every instruction fetch drives the
    # on-chip instruction bus between the I-memory and the core; an optional
    # encoder (e.g. a trained FunctionalEncoder) reduces its transitions.
    ibus_energy: BusEnergyModel = field(default_factory=BusEnergyModel.on_chip)
    ibus_encoder: object | None = None

    def with_codec(self, codec: LineCodec | None) -> "PlatformConfig":
        """Copy of this config with a different compression codec."""
        return replace(self, codec=codec)

    def with_ibus_encoder(self, encoder) -> "PlatformConfig":
        """Copy of this config with a different instruction-bus encoder."""
        return replace(self, ibus_encoder=encoder)


@dataclass
class PlatformReport:
    """Everything measured during one platform run."""

    platform: str
    breakdown: EnergyBreakdown
    icache_stats: CacheStats
    dcache_stats: CacheStats
    unit_stats: UnitStats | None
    bytes_to_memory: int
    bytes_from_memory: int
    cycles: int = 0
    decompression_cycles: int = 0

    def __post_init__(self) -> None:
        check_report(
            "PlatformReport",
            self.breakdown,
            icache_accesses=self.icache_stats.accesses,
            dcache_accesses=self.dcache_stats.accesses,
            bytes_to_memory=self.bytes_to_memory,
            bytes_from_memory=self.bytes_from_memory,
            cycles=self.cycles,
            decompression_cycles=self.decompression_cycles,
        )
        if self.decompression_cycles > self.cycles:
            raise ValueError(
                f"PlatformReport.decompression_cycles ({self.decompression_cycles}) "
                f"exceeds cycles ({self.cycles})"
            )

    @property
    def offchip_bytes(self) -> int:
        """Total off-chip traffic in bytes."""
        return self.bytes_to_memory + self.bytes_from_memory

    def slowdown_vs(self, baseline: "PlatformReport") -> float:
        """Fractional cycle increase relative to ``baseline`` (negative = faster)."""
        if baseline.cycles == 0:
            return 0.0
        return self.cycles / baseline.cycles - 1.0

    @property
    def energy_delay_product(self) -> float:
        """EDP in pJ·cycles — the metric that exposes latency-for-energy trades."""
        return self.breakdown.total * self.cycles


class Platform:
    """Executable platform model.

    Use :meth:`run_program` to execute an assembled kernel on the ISS and
    push its traces through the memory hierarchy, or :meth:`run_traces` to
    replay pre-captured traces.
    """

    def __init__(self, config: PlatformConfig) -> None:
        self.config = config

    def run_program(self, program: Program, memory_size: int = 1 << 20) -> PlatformReport:
        """Execute ``program`` and account the memory-subsystem energy."""
        result = CPU(memory_size=memory_size).run(program)
        instruction_image = MemoryImage()
        for index, word in enumerate(program.text_words):
            instruction_image.store(program.text_base + 4 * index, word)
        return self.run_traces(
            result.data_trace,
            result.instruction_trace,
            instruction_image=instruction_image,
        )

    def run_traces(
        self,
        data_trace: Trace,
        instruction_trace: Trace | None = None,
        instruction_image: MemoryImage | None = None,
    ) -> PlatformReport:
        """Replay traces through the hierarchy; return the energy report.

        The active recorder gets the replay as a ``compression`` span (the
        E2 stage this platform substrate exists for) and receives the energy
        breakdown per component plus the off-chip byte counts — flushed once
        from the finished report, so recording never perturbs it.
        """
        with span(
            "compression",
            platform=self.config.name,
            codec=type(self.config.codec).__name__ if self.config.codec else None,
        ):
            report = self._run_traces(data_trace, instruction_trace, instruction_image)
        recorder = current_recorder()
        if recorder.enabled:
            for component, value_pj in report.breakdown.as_dict().items():
                recorder.counter(PLATFORM_ENERGY_PJ, value_pj, component=component)
            recorder.counter(
                COMPRESS_OFFCHIP_BYTES, report.bytes_to_memory, direction="to_memory"
            )
            recorder.counter(
                COMPRESS_OFFCHIP_BYTES, report.bytes_from_memory, direction="from_memory"
            )
        return report

    def _run_traces(
        self,
        data_trace: Trace,
        instruction_trace: Trace | None = None,
        instruction_image: MemoryImage | None = None,
    ) -> PlatformReport:
        """Replay body (uninstrumented); see :meth:`run_traces`."""
        config = self.config
        icache = Cache(config.icache, energy_model=config.sram, name="icache")
        dcache = Cache(config.dcache, energy_model=config.sram, name="dcache")
        bus = Bus(width=config.bus_width, energy_model=config.bus_energy, name="offchip")
        memory = MainMemory(model=config.dram, line_bytes=config.dcache.line_size)
        unit = CompressionUnit(config.codec) if config.codec is not None else None
        image = MemoryImage()
        compressed_store: dict[int, int] = {}  # line addr -> stored (compressed) bytes

        breakdown = EnergyBreakdown()
        timing = {"stall_cycles": 0, "decompression_cycles": 0}

        # ---- instruction side ------------------------------------------------
        # Every fetch drives the on-chip instruction bus with the fetched
        # word (the 1B-3 communication path); I-cache refills additionally
        # burst the line from memory with its real content when available.
        if instruction_trace is not None:
            ibus = Bus(
                width=config.bus_width,
                energy_model=config.ibus_energy,
                encoder=config.ibus_encoder,
                name="ibus",
            )
            if instruction_trace.values is not None and instruction_trace.value_mask is not None:
                breakdown.ibus += ibus.drive_all(
                    instruction_trace.values[instruction_trace.value_mask]
                )
            for _index, transfer in icache.run(instruction_trace.addresses):
                breakdown.dram += memory.read_burst(transfer.size)
                content = (
                    instruction_image.line_bytes(transfer.line_address, transfer.size)
                    if instruction_image is not None
                    else bytes(transfer.size)
                )
                breakdown.bus += bus.drive_bytes(content)
                timing["stall_cycles"] += (
                    config.miss_penalty_cycles
                    + config.cycles_per_burst_word * (transfer.size // 4)
                )
            breakdown.icache = icache.lookup_energy_total

        # ---- data side: write-back D-cache with optional compression --------
        # A store reaches the image before its own lookup, so the transfers
        # of access i carry every store up to and including i.
        writes = data_trace.kinds == KIND_WRITE
        stores: list[tuple[int, int, int]] = []
        store_rows = np.empty(0, dtype=np.int64)
        if data_trace.values is not None and data_trace.value_mask is not None:
            store_rows = np.flatnonzero(writes & data_trace.value_mask)
            stores = list(
                zip(
                    data_trace.addresses[store_rows].tolist(),
                    data_trace.values[store_rows].tolist(),
                    data_trace.sizes[store_rows].tolist(),
                )
            )
        transfers = dcache.run(data_trace.addresses, writes)
        cuts = np.searchsorted(store_rows, [index for index, _ in transfers], side="right")
        applied = 0
        for (_index, transfer), cut in zip(transfers, cuts.tolist()):
            for address, value, size in stores[applied:cut]:
                image.store(address, value, size)
            applied = cut
            self._transfer(
                transfer.line_address,
                transfer.size,
                transfer.is_writeback,
                image,
                unit,
                bus,
                memory,
                compressed_store,
                breakdown,
                timing,
            )
        for address, value, size in stores[applied:]:
            image.store(address, value, size)
        # Flush dirty lines at program end so all write traffic is accounted.
        for transfer in dcache.flush():
            self._transfer(
                transfer.line_address,
                transfer.size,
                True,
                image,
                unit,
                bus,
                memory,
                compressed_store,
                breakdown,
                timing,
            )
        breakdown.dcache = dcache.lookup_energy_total
        if unit is not None:
            breakdown.compression_unit = unit.stats.energy

        if instruction_trace is not None:
            issue_cycles = -(-len(instruction_trace) // config.issue_width)
        else:
            issue_cycles = len(data_trace)
        cycles = issue_cycles + timing["stall_cycles"] + timing["decompression_cycles"]

        return PlatformReport(
            platform=config.name,
            breakdown=breakdown,
            icache_stats=icache.stats,
            dcache_stats=dcache.stats,
            unit_stats=unit.stats if unit is not None else None,
            bytes_to_memory=memory.bytes_written,
            bytes_from_memory=memory.bytes_read,
            cycles=cycles,
            decompression_cycles=timing["decompression_cycles"],
        )

    def _transfer(
        self,
        line_address: int,
        size: int,
        is_writeback: bool,
        image: MemoryImage,
        unit: CompressionUnit | None,
        bus: Bus,
        memory: MainMemory,
        compressed_store: dict[int, int],
        breakdown: EnergyBreakdown,
        timing: dict[str, int] | None = None,
    ) -> None:
        if timing is None:
            timing = {"stall_cycles": 0, "decompression_cycles": 0}
        config = self.config
        content = image.line_bytes(line_address, size)
        if is_writeback:
            # Write-backs drain through a store buffer: no stall cycles.
            if unit is not None and size == self.config.dcache.line_size:
                line = unit.compress(content)
                payload = line.payload[: line.transfer_bytes]
                compressed_store[line_address] = line.transfer_bytes
                breakdown.bus += bus.drive_bytes(payload)
                breakdown.dram += memory.write_burst(line.transfer_bytes)
            else:
                breakdown.bus += bus.drive_bytes(content)
                breakdown.dram += memory.write_burst(size)
        else:
            stored = compressed_store.get(line_address)
            if unit is not None and stored is not None:
                # The line lives compressed in memory: burst the compressed
                # bytes, decompress on the way into the cache.  Fewer burst
                # words partially hide the decompression pipeline latency.
                breakdown.dram += memory.read_burst(stored)
                breakdown.bus += bus.drive_bytes(content[:stored])
                unit.stats.energy += unit.operation_energy(size)
                unit.stats.lines_decompressed += 1
                burst_cycles = config.cycles_per_burst_word * (-(-stored // 4))
                decompress_cycles = unit.latency_cycles(size)
                timing["stall_cycles"] += config.miss_penalty_cycles + burst_cycles
                timing["decompression_cycles"] += decompress_cycles
            else:
                breakdown.dram += memory.read_burst(size)
                breakdown.bus += bus.drive_bytes(content)
                timing["stall_cycles"] += (
                    config.miss_penalty_cycles + config.cycles_per_burst_word * (size // 4)
                )


def risc_platform(codec: LineCodec | None = None) -> Platform:
    """MIPS/SimpleScalar-class single-issue platform (the paper's RISC side)."""
    return Platform(
        PlatformConfig(
            name="risc",
            issue_width=1,
            icache=CacheConfig(size=4 * 1024, line_size=32, ways=2),
            dcache=CacheConfig(size=1024, line_size=32, ways=2),
            codec=codec,
        )
    )


def vliw_platform(codec: LineCodec | None = None) -> Platform:
    """Lx-ST200-class 4-issue VLIW platform (the paper's primary target)."""
    return Platform(
        PlatformConfig(
            name="vliw",
            issue_width=4,
            icache=CacheConfig(size=16 * 1024, line_size=64, ways=1),
            dcache=CacheConfig(size=2 * 1024, line_size=32, ways=4),
            codec=codec,
        )
    )


def default_codec() -> LineCodec:
    """The paper's differential codec."""
    return DifferentialCodec()
