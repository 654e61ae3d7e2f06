"""Tests for trace stream-structure statistics."""

import math

import pytest

from repro.trace import (
    MemoryAccess,
    StridedSweepGenerator,
    MarkovRegionGenerator,
    Trace,
    address_entropy,
    dominant_stride,
    region_stickiness,
    region_transition_matrix,
    stride_histogram,
)


def trace_of(addresses):
    return Trace.from_events([MemoryAccess(time=t, address=a) for t, a in enumerate(addresses)])


class TestStrides:
    def test_sequential_trace_has_dominant_stride(self):
        trace = StridedSweepGenerator(length=100, stride=8, sweeps=1).generate()
        stride, share = dominant_stride(trace)
        assert stride == 8
        assert share == 1.0

    def test_histogram_ordering(self):
        trace = trace_of([0, 4, 8, 12, 100, 104])
        histogram = stride_histogram(trace)
        assert histogram[0] == (4, 4)

    def test_top_truncates(self):
        trace = trace_of([0, 4, 8, 100, 0])
        assert len(stride_histogram(trace, top=1)) == 1

    def test_tiny_traces(self):
        assert dominant_stride(Trace.from_events([])) == (0, 0.0)
        assert dominant_stride(trace_of([4])) == (0, 0.0)

    def test_negative_strides_counted(self):
        trace = trace_of([100, 96, 92])
        stride, share = dominant_stride(trace)
        assert stride == -4 and share == 1.0


class TestEntropy:
    def test_single_block_is_zero_bits(self):
        trace = trace_of([0, 4, 8] * 10)  # all inside block 0 (32 B)
        assert address_entropy(trace, block_size=32) == 0.0

    def test_uniform_blocks_reach_log2_n(self):
        addresses = [block * 32 for block in range(8)] * 10
        trace = trace_of(addresses)
        assert address_entropy(trace, block_size=32) == pytest.approx(3.0)

    def test_skew_lowers_entropy(self):
        uniform = trace_of([block * 32 for block in range(8)] * 8)
        skewed = trace_of([0] * 56 + [block * 32 for block in range(8)])
        assert address_entropy(skewed, 32) < address_entropy(uniform, 32)

    def test_empty_trace(self):
        assert address_entropy(Trace.from_events([]), 32) == 0.0

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            address_entropy(Trace.from_events([]), 0)


class TestRegions:
    def test_transition_counts(self):
        trace = trace_of([0, 100, 5000, 5100, 0])
        matrix = region_transition_matrix(trace, region_size=4096)
        assert matrix[(0, 0)] == 1
        assert matrix[(0, 1)] == 1
        assert matrix[(1, 1)] == 1
        assert matrix[(1, 0)] == 1

    def test_stickiness_of_sticky_trace(self):
        sticky = MarkovRegionGenerator(stickiness=0.98, accesses=4000, seed=1).generate()
        hoppy = MarkovRegionGenerator(stickiness=0.50, accesses=4000, seed=1).generate()
        assert region_stickiness(sticky, 32 * 1024) > region_stickiness(hoppy, 32 * 1024)

    def test_stickiness_bounds(self):
        assert region_stickiness(Trace.from_events([])) == 1.0
        trace = trace_of([0, 4, 8])
        assert region_stickiness(trace, 4096) == 1.0

    def test_region_size_validated(self):
        with pytest.raises(ValueError):
            region_transition_matrix(Trace.from_events([]), 0)
