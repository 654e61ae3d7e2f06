"""Unit tests for the address-clustering strategies."""

import pytest

from repro.core import (
    AffinityClustering,
    FrequencyClustering,
    IdentityClustering,
    RandomClustering,
    arrangement_cost,
    get_strategy,
    refine_order,
)
from repro.trace import AccessProfile, MemoryAccess, ScatteredHotGenerator, Trace


def profile_from_blocks(blocks, block_size=32):
    events = [
        MemoryAccess(time=time, address=block * block_size) for time, block in enumerate(blocks)
    ]
    return AccessProfile(Trace.from_events(events), block_size=block_size)


class TestStrategies:
    def test_identity_is_sorted(self):
        profile = profile_from_blocks([9, 1, 5, 1, 9])
        layout = IdentityClustering().build_layout(profile)
        assert layout.order == [1, 5, 9]

    def test_frequency_sorts_by_count(self):
        profile = profile_from_blocks([3, 3, 3, 7, 7, 1])
        layout = FrequencyClustering().build_layout(profile)
        assert layout.order == [3, 7, 1]

    def test_frequency_ties_break_by_block(self):
        profile = profile_from_blocks([4, 2, 9])
        layout = FrequencyClustering().build_layout(profile)
        assert layout.order == [2, 4, 9]

    def test_random_is_permutation(self):
        profile = profile_from_blocks(list(range(20)))
        layout = RandomClustering(seed=5).build_layout(profile)
        assert sorted(layout.order) == list(range(20))

    def test_random_deterministic_per_seed(self):
        profile = profile_from_blocks(list(range(20)))
        a = RandomClustering(seed=5).build_layout(profile)
        b = RandomClustering(seed=5).build_layout(profile)
        assert a.order == b.order

    def test_affinity_groups_coaccessed_blocks(self):
        # Blocks 0 and 50 always accessed together; 10 and 60 together.
        pattern = [0, 50, 10, 60] * 30
        profile = profile_from_blocks(pattern)
        layout = AffinityClustering(window=2).build_layout(profile)
        position = {block: index for index, block in enumerate(layout.order)}
        assert abs(position[0] - position[50]) <= 2
        assert abs(position[10] - position[60]) <= 2

    def test_affinity_layout_is_permutation(self):
        profile = AccessProfile(
            ScatteredHotGenerator(num_blocks=60, num_hot=6, accesses=3000).generate(),
            block_size=32,
        )
        layout = AffinityClustering().build_layout(profile)
        assert sorted(layout.order) == profile.blocks

    def test_affinity_respects_cluster_cap(self):
        profile = profile_from_blocks(list(range(10)) * 20)
        # cap of 2: union-find merges stop at pairs; still a permutation.
        layout = AffinityClustering(window=4, max_cluster_blocks=2).build_layout(profile)
        assert sorted(layout.order) == list(range(10))

    def test_get_strategy(self):
        assert isinstance(get_strategy("identity"), IdentityClustering)
        assert isinstance(get_strategy("affinity", window=8), AffinityClustering)
        with pytest.raises(KeyError):
            get_strategy("magic")


class TestArrangement:
    def test_arrangement_cost_counts_weighted_distance(self):
        affinity = {(0, 1): 10, (0, 2): 1}
        assert arrangement_cost([0, 1, 2], affinity) == 10 * 1 + 1 * 2
        assert arrangement_cost([1, 0, 2], affinity) == 10 * 1 + 1 * 1

    def test_refine_never_increases_cost(self):
        pattern = [0, 5, 1, 6, 2, 7] * 20
        profile = profile_from_blocks(pattern)
        affinity = profile.affinity_matrix(window=2)
        order = sorted(profile.blocks)
        refined = refine_order(order, affinity, passes=4)
        assert arrangement_cost(refined, affinity) <= arrangement_cost(order, affinity)
        assert sorted(refined) == sorted(order)

    def test_refine_zero_passes_is_identity(self):
        assert refine_order([3, 1, 2], {(1, 2): 5}, passes=0) == [3, 1, 2]

    def test_refine_handles_tiny_orders(self):
        assert refine_order([7], {}, passes=3) == [7]
        assert refine_order([], {}, passes=3) == []


class TestClusteringImprovesPartitioning:
    def test_scattered_hot_set_gains(self):
        from repro.core import optimize_memory_layout

        trace = ScatteredHotGenerator(
            num_blocks=200, num_hot=20, hot_weight=30.0, accesses=15000, seed=11
        ).generate()
        result = optimize_memory_layout(
            trace, block_size=32, max_banks=4, strategy="frequency"
        )
        assert result.saving_vs_partitioned > 0.15

    def test_contiguous_hot_set_gains_little(self):
        # When the hot region is already contiguous, partitioning alone is
        # near-optimal and clustering adds (almost) nothing: the honest
        # negative control.
        from repro.core import optimize_memory_layout
        from repro.trace import HotColdGenerator

        trace = HotColdGenerator(accesses=8000).generate()
        result = optimize_memory_layout(trace, block_size=64, max_banks=4, strategy="frequency")
        assert result.saving_vs_partitioned < 0.10


class TestPhaseAwareClustering:
    def make_two_phase_profile(self):
        from repro.trace import AccessProfile, MemoryAccess, ScatteredHotGenerator, Trace

        events = []
        time = 0
        for phase, seed in enumerate((1, 2)):
            base = phase * 65536
            generator = ScatteredHotGenerator(100, 10, 30.0, 8000, seed=seed)
            for event in generator.generate():
                events.append(
                    MemoryAccess(time=time, address=base + event.address, kind=event.kind)
                )
                time += 1
        return AccessProfile(Trace.from_events(events), block_size=32)

    def test_is_permutation(self):
        from repro.core import PhaseAwareClustering

        profile = self.make_two_phase_profile()
        layout = PhaseAwareClustering(window=1000, num_clusters=2).build_layout(profile)
        assert sorted(layout.order) == profile.blocks

    def test_phase_blocks_stay_contiguous(self):
        from repro.core import PhaseAwareClustering

        profile = self.make_two_phase_profile()
        layout = PhaseAwareClustering(window=1000, num_clusters=2).build_layout(profile)
        # Blocks from the two disjoint address regions must not interleave:
        # the sequence of region ids along the layout changes at most once.
        regions = [0 if block * 32 < 65536 else 1 for block in layout.order]
        changes = sum(1 for a, b in zip(regions, regions[1:]) if a != b)
        assert changes == 1

    def test_registered_in_strategy_registry(self):
        from repro.core import PhaseAwareClustering, get_strategy

        assert isinstance(get_strategy("phase_aware"), PhaseAwareClustering)

    def test_single_phase_degenerates_to_frequency_order(self):
        from repro.core import FrequencyClustering, PhaseAwareClustering

        profile = profile_from_blocks([3, 3, 3, 7, 7, 1] * 50)
        phase_aware = PhaseAwareClustering(window=50, num_clusters=1).build_layout(profile)
        frequency = FrequencyClustering().build_layout(profile)
        assert phase_aware.order == frequency.order
