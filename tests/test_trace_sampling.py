"""Tests for trace sampling."""

import pytest

from repro.core import optimize_memory_layout
from repro.trace import (
    AccessProfile,
    IntervalSampler,
    MemoryAccess,
    ScatteredHotGenerator,
    SystematicSampler,
    Trace,
    count_error,
    scale_counts,
)


@pytest.fixture(scope="module")
def big_trace():
    return ScatteredHotGenerator(
        num_blocks=300, num_hot=30, hot_weight=40.0, accesses=30000, seed=4
    ).generate()


class TestSystematicSampler:
    def test_rate_and_size(self, big_trace):
        sampler = SystematicSampler(period=10)
        sampled = sampler.sample(big_trace)
        assert len(sampled) == len(big_trace) // 10
        assert sampler.rate == pytest.approx(0.1)

    def test_offset_selects_different_events(self, big_trace):
        a = SystematicSampler(period=10, offset=0).sample(big_trace)
        b = SystematicSampler(period=10, offset=5).sample(big_trace)
        assert a.timestamps[0] != b.timestamps[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SystematicSampler(period=0)
        with pytest.raises(ValueError):
            SystematicSampler(period=5, offset=5)

    def test_preserves_event_identity(self):
        trace = Trace.from_events([MemoryAccess(time=t, address=4 * t) for t in range(20)])
        sampled = SystematicSampler(period=4).sample(trace)
        assert [e.address for e in sampled] == [0, 16, 32, 48, 64]


class TestIntervalSampler:
    def test_keeps_whole_windows(self):
        trace = Trace.from_events([MemoryAccess(time=t, address=4 * t) for t in range(30)])
        sampled = IntervalSampler(window=3, period=10).sample(trace)
        assert [e.time for e in sampled] == [0, 1, 2, 10, 11, 12, 20, 21, 22]

    def test_rate(self):
        assert IntervalSampler(window=100, period=1000).rate == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalSampler(window=0, period=10)
        with pytest.raises(ValueError):
            IntervalSampler(window=20, period=10)

    def test_preserves_local_affinity(self, big_trace):
        # Interval sampling keeps adjacent pairs; systematic destroys them.
        interval = IntervalSampler(window=100, period=1000).sample(big_trace)
        profile = AccessProfile(interval, block_size=32)
        affinity = profile.affinity_matrix(window=4)
        assert len(affinity) > 0


class TestCountEstimation:
    def test_scale_counts(self):
        assert scale_counts({1: 5}, rate=0.1) == {1: 50.0}

    def test_scale_counts_validates_rate(self):
        with pytest.raises(ValueError):
            scale_counts({}, rate=0.0)
        with pytest.raises(ValueError):
            scale_counts({}, rate=1.5)

    def test_count_error_zero_for_perfect_estimate(self):
        full = {1: 10, 2: 20}
        assert count_error(full, {1: 10.0, 2: 20.0}) == 0.0

    def test_count_error_penalizes_missing_blocks(self):
        assert count_error({1: 10}, {}) == pytest.approx(1.0)

    def test_count_error_empty(self):
        assert count_error({}, {}) == 0.0

    @pytest.mark.parametrize(
        "sampler",
        [SystematicSampler(period=10), IntervalSampler(window=100, period=1000)],
        ids=["systematic", "interval"],
    )
    def test_sampled_counts_accurate_on_real_trace(self, big_trace, sampler):
        full = AccessProfile(big_trace, block_size=32).access_counts()
        sampled = sampler.sample(big_trace)
        estimated = scale_counts(
            AccessProfile(sampled, block_size=32).access_counts(), sampler.rate
        )
        assert count_error(full, estimated) < 0.25


class TestSampledOptimization:
    def test_layout_from_sample_close_to_full(self, big_trace):
        """The E1 flow driven by a 10% sample lands within a few percent of
        the full-trace result — the point of sampling."""
        full = optimize_memory_layout(
            big_trace, block_size=32, max_banks=4, strategy="frequency"
        )
        sampled_trace = IntervalSampler(window=200, period=2000).sample(big_trace)
        # Build the layout from the sample, then evaluate it on the FULL trace.
        from repro.core import FrequencyClustering
        from repro.partition import (
            OptimalPartitioner,
            PartitionCostModel,
            simulate_partition,
        )

        sample_profile = AccessProfile(sampled_trace, block_size=32)
        full_profile = AccessProfile(big_trace, block_size=32)
        # Blocks the sample missed are appended cold at the end.
        layout_order = list(FrequencyClustering().build_layout(sample_profile).order)
        missed = [b for b in full_profile.blocks if b not in set(layout_order)]
        from repro.core import BlockLayout

        layout = BlockLayout(layout_order + missed, 32, name="sampled")
        reads, writes = layout.counts_in_order(full_profile)
        model = PartitionCostModel(reads=reads, writes=writes, block_size=32)
        spec = OptimalPartitioner(max_banks=4).partition(model).spec
        energy = simulate_partition(spec, layout.remap_trace(big_trace)).total
        assert energy <= 1.10 * full.clustered.simulated.total
