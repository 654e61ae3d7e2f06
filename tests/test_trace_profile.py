"""Unit tests for access profiles and locality metrics."""

import pytest

from repro.trace import (
    AccessKind,
    AccessProfile,
    MemoryAccess,
    Trace,
    reuse_distances,
)


def trace_of_blocks(blocks, block_size=32, write_every=None):
    """Trace touching the given block indices in order (one word each)."""
    events = []
    for time, block in enumerate(blocks):
        kind = AccessKind.WRITE if write_every and time % write_every == 0 else AccessKind.READ
        events.append(MemoryAccess(time=time, address=block * block_size, kind=kind))
    return Trace.from_events(events)


class TestReuseDistances:
    def test_first_touch_is_minus_one(self):
        assert reuse_distances([1, 2, 3]) == [-1, -1, -1]

    def test_immediate_reuse_is_zero(self):
        assert reuse_distances([1, 1]) == [-1, 0]

    def test_classic_sequence(self):
        # a b c a : 'a' is reused after touching b and c -> distance 2
        assert reuse_distances([1, 2, 3, 1]) == [-1, -1, -1, 2]

    def test_duplicates_do_not_inflate(self):
        # a b b a : distinct blocks between a's uses = {b} -> distance 1
        assert reuse_distances([1, 2, 2, 1]) == [-1, -1, 0, 1]

    def test_empty(self):
        assert reuse_distances([]) == []


class TestAccessProfile:
    def test_counts_and_blocks(self):
        profile = AccessProfile(trace_of_blocks([0, 1, 0, 2, 0]), block_size=32)
        assert profile.blocks == [0, 1, 2]
        assert profile.access_counts() == {0: 3, 1: 1, 2: 1}
        assert profile.total_accesses == 5

    def test_read_write_split(self):
        profile = AccessProfile(trace_of_blocks([0, 0, 0], write_every=3), block_size=32)
        stats = profile.stats(0)
        assert stats.writes == 1
        assert stats.reads == 2

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            AccessProfile(Trace.from_events([]), block_size=0)

    def test_stats_unknown_block_raises(self):
        profile = AccessProfile(trace_of_blocks([0]), block_size=32)
        with pytest.raises(KeyError):
            profile.stats(99)

    def test_lifetime(self):
        profile = AccessProfile(trace_of_blocks([5, 1, 5]), block_size=32)
        assert profile.stats(5).lifetime == 2
        assert profile.stats(1).lifetime == 0


class TestLocalityMetrics:
    def test_sequential_trace_has_high_spatial_locality(self):
        profile = AccessProfile(trace_of_blocks(list(range(50))), block_size=32)
        assert profile.spatial_locality() == 1.0

    def test_scattered_trace_has_low_spatial_locality(self):
        profile = AccessProfile(trace_of_blocks([0, 100, 5, 200, 9]), block_size=32)
        assert profile.spatial_locality() == 0.0

    def test_temporal_locality_of_tight_loop(self):
        profile = AccessProfile(trace_of_blocks([0, 1] * 20), block_size=32)
        # reuse distance is always 1 -> locality = 1/2
        assert profile.temporal_locality() == pytest.approx(0.5)

    def test_temporal_locality_no_reuse(self):
        profile = AccessProfile(trace_of_blocks(list(range(10))), block_size=32)
        assert profile.temporal_locality() == 0.0

    def test_working_set_size(self):
        profile = AccessProfile(trace_of_blocks([0, 1, 2, 3] * 10), block_size=32)
        assert profile.working_set_size(window=4) == pytest.approx(4.0)

    def test_reuse_histogram_keys(self):
        profile = AccessProfile(trace_of_blocks([0, 1, 0, 1]), block_size=32)
        histogram = profile.reuse_histogram()
        assert histogram[-1] == 2  # two first touches
        assert histogram[1] == 2  # two reuses at distance 1

    @pytest.mark.parametrize("window", [0, -5])
    def test_working_set_rejects_nonpositive_window(self, window):
        profile = AccessProfile(trace_of_blocks([0, 1, 0, 1]), block_size=32)
        with pytest.raises(ValueError, match=f"window must be >= 1, got {window}$"):
            profile.working_set_size(window)

    def test_reuse_histogram_rejects_negative_max_distance(self):
        profile = AccessProfile(trace_of_blocks([0, 1, 0, 1]), block_size=32)
        with pytest.raises(ValueError, match="max_distance must be >= 0, got -1$"):
            profile.reuse_histogram(max_distance=-1)
        assert profile.reuse_histogram(max_distance=0) == {-1: 2, 0: 2}

    def test_summary_keys(self):
        profile = AccessProfile(trace_of_blocks([0, 1, 2]), block_size=32)
        summary = profile.summary()
        assert set(summary) == {
            "accesses",
            "blocks",
            "spatial_locality",
            "temporal_locality",
            "working_set",
        }


class TestAffinity:
    def test_cooccurring_blocks_have_affinity(self):
        profile = AccessProfile(trace_of_blocks([0, 7, 0, 7, 0, 7]), block_size=32)
        affinity = profile.affinity_matrix(window=2)
        assert affinity[(0, 7)] == 5  # every adjacent pair

    def test_window_limits_reach(self):
        profile = AccessProfile(trace_of_blocks([0, 1, 2, 3]), block_size=32)
        affinity = profile.affinity_matrix(window=2)
        assert (0, 3) not in affinity
        assert (0, 1) in affinity

    def test_window_must_exceed_one(self):
        profile = AccessProfile(trace_of_blocks([0]), block_size=32)
        with pytest.raises(ValueError):
            profile.affinity_matrix(window=1)

    def test_affinity_keys_sorted(self):
        profile = AccessProfile(trace_of_blocks([9, 2, 9, 2]), block_size=32)
        affinity = profile.affinity_matrix(window=3)
        assert all(a < b for (a, b) in affinity)
