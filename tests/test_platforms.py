"""Unit and integration tests for the platform models (E2 substrate)."""

import dataclasses

import pytest

from repro.cache import CacheStats
from repro.compress import DifferentialCodec, ZeroRunCodec
from repro.isa import load_kernel
from repro.platforms import EnergyBreakdown, Platform, PlatformConfig, risc_platform, vliw_platform
from repro.trace import AccessKind, MemoryAccess, Trace, ValueTraceGenerator


class TestEnergyBreakdown:
    def test_total_and_fractions(self):
        breakdown = EnergyBreakdown(icache=10, dcache=20, bus=30, dram=40, compression_unit=0)
        assert breakdown.total == 100
        assert breakdown.fraction("dram") == pytest.approx(0.4)

    def test_saving_vs(self):
        a = EnergyBreakdown(dram=100)
        b = EnergyBreakdown(dram=80)
        assert b.saving_vs(a) == pytest.approx(0.2)

    def test_zero_baseline(self):
        assert EnergyBreakdown().saving_vs(EnergyBreakdown()) == 0.0
        assert EnergyBreakdown().fraction("bus") == 0.0


class TestPlatformBasics:
    def test_run_program_produces_report(self, saxpy_run):
        report = risc_platform().run_traces(saxpy_run.data_trace, saxpy_run.instruction_trace)
        assert report.breakdown.total > 0
        assert report.dcache_stats.accesses == len(saxpy_run.data_trace)
        assert report.icache_stats.accesses == len(saxpy_run.instruction_trace)

    def test_data_only_run(self, saxpy_run):
        report = risc_platform().run_traces(saxpy_run.data_trace)
        assert report.breakdown.icache == 0.0
        assert report.breakdown.dcache > 0

    def test_offchip_traffic_accounted(self, saxpy_run):
        report = risc_platform().run_traces(saxpy_run.data_trace)
        assert report.offchip_bytes == report.bytes_to_memory + report.bytes_from_memory
        assert report.bytes_from_memory > 0  # cold misses refill

    def test_flush_accounts_final_writebacks(self):
        # A pure write sweep bigger than the cache: every line must come back
        # out, either by eviction or by the final flush.
        events = [
            MemoryAccess(time=t, address=4 * t, kind=AccessKind.WRITE, value=t)
            for t in range(1024)
        ]
        report = risc_platform().run_traces(Trace.from_events(events))
        assert report.bytes_to_memory >= 4096  # all 4KB written eventually

    def test_presets_differ(self):
        assert risc_platform().config.icache.size < vliw_platform().config.icache.size
        assert vliw_platform().config.issue_width == 4


class TestReportPostconditions:
    @pytest.mark.parametrize(
        "change, field",
        [
            ({"breakdown": EnergyBreakdown(bus=-1.0)}, "breakdown.bus"),
            ({"breakdown": EnergyBreakdown(dram=float("nan"))}, "breakdown.dram"),
            ({"bytes_to_memory": -4}, "bytes_to_memory"),
            ({"dcache_stats": CacheStats(accesses=-1)}, "dcache_accesses"),
            ({"cycles": -1}, "cycles"),
            ({"decompression_cycles": 10**9}, "decompression_cycles"),
        ],
    )
    def test_bad_report_is_rejected(self, saxpy_run, change, field):
        report = risc_platform().run_traces(saxpy_run.data_trace)
        with pytest.raises(ValueError, match=f"PlatformReport.{field} "):
            dataclasses.replace(report, **change)


class TestCompressionOnPlatform:
    def smooth_write_trace(self):
        return ValueTraceGenerator(lines=400, smoothness=0.95, seed=3).generate()

    def test_compression_reduces_offchip_bytes(self):
        trace = self.smooth_write_trace()
        base = risc_platform(None).run_traces(trace)
        comp = risc_platform(DifferentialCodec()).run_traces(trace)
        assert comp.bytes_to_memory < base.bytes_to_memory

    def test_compression_saves_energy_on_write_reread_data(self):
        # Write smooth data over a region larger than the D-cache, then read
        # it back twice: the re-reads refill lines that live *compressed* in
        # memory, which is where the scheme earns its energy (the paper's
        # iterative media workloads have exactly this structure).
        write_pass = self.smooth_write_trace()
        events = list(write_pass)
        time = events[-1].time + 1
        for _ in range(2):
            for event in write_pass:
                events.append(
                    MemoryAccess(time=time, address=event.address, kind=AccessKind.READ)
                )
                time += 1
        trace = Trace.from_events(events, name="write_reread")
        base = risc_platform(None).run_traces(trace)
        comp = risc_platform(DifferentialCodec()).run_traces(trace)
        assert comp.breakdown.saving_vs(base.breakdown) > 0.05
        assert comp.breakdown.compression_unit > 0

    def test_compression_never_catastrophic_on_random_data(self):
        trace = ValueTraceGenerator(lines=300, smoothness=0.0, seed=4).generate()
        base = risc_platform(None).run_traces(trace)
        comp = risc_platform(DifferentialCodec()).run_traces(trace)
        # Escape path bounds the loss to the unit overhead (a few percent).
        assert comp.breakdown.saving_vs(base.breakdown) > -0.10

    def test_unit_stats_reported(self):
        trace = self.smooth_write_trace()
        report = risc_platform(DifferentialCodec()).run_traces(trace)
        assert report.unit_stats is not None
        assert report.unit_stats.lines_compressed > 0
        assert report.unit_stats.mean_ratio < 1.0

    def test_codec_choice_matters(self):
        trace = self.smooth_write_trace()
        differential = risc_platform(DifferentialCodec()).run_traces(trace)
        zero_run = risc_platform(ZeroRunCodec()).run_traces(trace)
        # Random-walk data: differential must move fewer bytes than zero-run.
        assert differential.bytes_to_memory < zero_run.bytes_to_memory

    def test_with_codec_copies_config(self):
        config = risc_platform().config
        new_config = config.with_codec(DifferentialCodec())
        assert config.codec is None
        assert new_config.codec is not None
        assert new_config.dcache == config.dcache


class TestKernelOnPlatform:
    @pytest.mark.parametrize("kernel", ["saxpy", "idct_rows"])
    def test_compression_savings_in_band_on_streaming_kernels(self, kernel):
        program = load_kernel(kernel)
        base = risc_platform(None).run_program(program)
        comp = risc_platform(DifferentialCodec()).run_program(program)
        saving = comp.breakdown.saving_vs(base.breakdown)
        assert 0.03 < saving < 0.35
