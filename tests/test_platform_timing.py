"""Tests for the platform timing model (cycles, slowdown, EDP)."""

import pytest

from repro.compress import DifferentialCodec
from repro.platforms import risc_platform, vliw_platform
from repro.trace import AccessKind, MemoryAccess, Trace, ValueTraceGenerator


def write_reread_trace(lines=300, rereads=2):
    write_pass = ValueTraceGenerator(lines=lines, smoothness=0.95, seed=3).generate()
    events = list(write_pass)
    time = events[-1].time + 1
    for _ in range(rereads):
        for event in write_pass:
            events.append(MemoryAccess(time=time, address=event.address, kind=AccessKind.READ))
            time += 1
    return Trace.from_events(events, name="write_reread")


class TestCycleAccounting:
    def test_cycles_positive_and_exceed_issue(self, saxpy_run):
        report = risc_platform().run_traces(saxpy_run.data_trace, saxpy_run.instruction_trace)
        assert report.cycles > len(saxpy_run.instruction_trace)

    def test_wider_issue_reduces_cycles(self, saxpy_run):
        risc = risc_platform().run_traces(saxpy_run.data_trace, saxpy_run.instruction_trace)
        vliw = vliw_platform().run_traces(saxpy_run.data_trace, saxpy_run.instruction_trace)
        # 4-issue fetch drains the same instruction stream in fewer issue slots.
        assert vliw.cycles < risc.cycles

    def test_misses_cost_cycles(self):
        # Two traces with identical length, different locality.
        hot = Trace.from_events([MemoryAccess(time=t, address=0) for t in range(500)])
        cold = Trace.from_events([MemoryAccess(time=t, address=t * 64) for t in range(500)])
        platform = risc_platform()
        assert platform.run_traces(cold).cycles > platform.run_traces(hot).cycles

    def test_data_only_uses_access_count_as_issue_proxy(self):
        trace = Trace.from_events([MemoryAccess(time=t, address=0) for t in range(100)])
        report = risc_platform().run_traces(trace)
        assert report.cycles >= 100


class TestCompressionTiming:
    def test_decompression_cycles_appear_on_compressed_refills(self):
        trace = write_reread_trace()
        report = risc_platform(DifferentialCodec()).run_traces(trace)
        assert report.decompression_cycles > 0

    def test_streaming_write_once_has_no_decompression(self):
        trace = ValueTraceGenerator(lines=300, smoothness=0.9, seed=1).generate()
        report = risc_platform(DifferentialCodec()).run_traces(trace)
        assert report.decompression_cycles == 0

    def test_slowdown_is_negligible(self):
        # The paper's real-time argument: shorter compressed bursts roughly
        # hide the decompression pipeline.  Bound the slowdown at 5%.
        trace = write_reread_trace()
        base = risc_platform(None).run_traces(trace)
        comp = risc_platform(DifferentialCodec()).run_traces(trace)
        assert abs(comp.slowdown_vs(base)) < 0.05

    def test_edp_improves_with_compression(self):
        trace = write_reread_trace()
        base = risc_platform(None).run_traces(trace)
        comp = risc_platform(DifferentialCodec()).run_traces(trace)
        assert comp.energy_delay_product < base.energy_delay_product

    def test_slowdown_vs_zero_baseline(self):
        trace = write_reread_trace(lines=50, rereads=1)
        report = risc_platform().run_traces(trace)
        empty = risc_platform().run_traces(Trace.from_events([]))
        assert report.slowdown_vs(empty) == 0.0  # guarded division
