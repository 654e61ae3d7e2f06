"""Tests for the DP, greedy, and even partitioners.

The DP is verified against brute-force enumeration of all contiguous
partitions on small inputs — the strongest check available.
"""

import itertools

import numpy as np
import pytest

from repro.partition import (
    EvenPartitioner,
    GreedyPartitioner,
    OptimalPartitioner,
    PartitionCostModel,
    PartitionSpec,
)


def model_from_counts(reads, writes=None, **kwargs):
    reads = np.array(reads)
    writes = np.zeros_like(reads) if writes is None else np.array(writes)
    return PartitionCostModel(reads=reads, writes=writes, block_size=32, **kwargs)


def brute_force_best(model, max_banks):
    """Enumerate every contiguous partition with <= max_banks banks."""
    n = model.num_blocks
    best_cost, best_spec = float("inf"), None
    for k in range(1, min(max_banks, n) + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            edges = (0,) + cuts + (n,)
            blocks = tuple(edges[i + 1] - edges[i] for i in range(k))
            spec = PartitionSpec(block_size=model.block_size, bank_blocks=blocks)
            cost = model.partition_cost(spec)
            if cost < best_cost:
                best_cost, best_spec = cost, spec
    return best_cost, best_spec


class TestOptimalPartitioner:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 500, size=9)
        model = model_from_counts(counts)
        result = OptimalPartitioner(max_banks=4).partition(model)
        brute_cost, _ = brute_force_best(model, max_banks=4)
        assert result.predicted_energy == pytest.approx(brute_cost)

    def test_predicted_energy_is_consistent(self):
        model = model_from_counts([100, 1, 1, 200, 1, 1])
        result = OptimalPartitioner(max_banks=4).partition(model)
        assert result.predicted_energy == pytest.approx(model.partition_cost(result.spec))

    def test_fixed_bank_count_respected(self):
        model = model_from_counts([10] * 8)
        result = OptimalPartitioner(max_banks=8).partition(model, num_banks=3)
        assert result.num_banks == 3
        assert result.spec.num_banks == 3

    def test_never_worse_than_monolithic(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            model = model_from_counts(rng.integers(0, 100, size=20))
            result = OptimalPartitioner(max_banks=6).partition(model)
            assert result.predicted_energy <= model.monolithic_cost() + 1e-9

    def test_isolates_hot_block(self):
        counts = [1] * 10 + [10000] + [1] * 10
        model = model_from_counts(counts)
        result = OptimalPartitioner(max_banks=4).partition(model)
        # The hot block must sit alone (or nearly alone) in its bank.
        hot_bank = result.spec.bank_of_block(10)
        assert result.spec.bank_blocks[hot_bank] <= 3

    def test_coalescing_keeps_cover(self):
        rng = np.random.default_rng(1)
        model = model_from_counts(rng.integers(0, 50, size=600))
        result = OptimalPartitioner(max_banks=4, max_dp_cells=64).partition(model)
        assert result.spec.total_blocks == 600

    def test_more_banks_than_blocks_clamped(self):
        model = model_from_counts([5, 5])
        result = OptimalPartitioner(max_banks=8).partition(model)
        assert result.num_banks <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimalPartitioner(max_banks=0)
        with pytest.raises(ValueError):
            OptimalPartitioner(max_banks=8, max_dp_cells=4)

    @pytest.mark.parametrize("num_banks", [0, -1])
    def test_num_banks_must_be_positive(self, num_banks):
        model = model_from_counts([5, 1, 5])
        with pytest.raises(ValueError, match=f"num_banks must be positive, got {num_banks}"):
            OptimalPartitioner(max_banks=4).partition(model, num_banks=num_banks)


class TestGreedyPartitioner:
    def test_never_worse_than_single_bank(self):
        rng = np.random.default_rng(2)
        model = model_from_counts(rng.integers(0, 300, size=30))
        result = GreedyPartitioner(max_banks=6).partition(model)
        assert result.predicted_energy <= model.monolithic_cost() + 1e-9

    def test_within_margin_of_optimal(self):
        rng = np.random.default_rng(3)
        model = model_from_counts(rng.integers(0, 300, size=24))
        greedy = GreedyPartitioner(max_banks=4).partition(model)
        optimal = OptimalPartitioner(max_banks=4).partition(model)
        assert greedy.predicted_energy >= optimal.predicted_energy - 1e-9
        assert greedy.predicted_energy <= 1.25 * optimal.predicted_energy

    def test_respects_max_banks(self):
        model = model_from_counts(list(range(40)))
        result = GreedyPartitioner(max_banks=3).partition(model)
        assert result.num_banks <= 3

    def test_spec_covers_all_blocks(self):
        model = model_from_counts([7] * 15)
        result = GreedyPartitioner(max_banks=4).partition(model)
        assert result.spec.total_blocks == 15


class TestEvenPartitioner:
    def test_even_split(self):
        model = model_from_counts([1] * 10)
        result = EvenPartitioner(num_banks=4).partition(model)
        assert result.spec.bank_blocks == (3, 3, 2, 2)

    def test_clamps_to_block_count(self):
        model = model_from_counts([1, 1])
        result = EvenPartitioner(num_banks=8).partition(model)
        assert result.num_banks == 2

    def test_optimal_beats_even_on_skewed_counts(self):
        counts = [1000, 1000, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
        model = model_from_counts(counts)
        even = EvenPartitioner(num_banks=4).partition(model)
        optimal = OptimalPartitioner(max_banks=4).partition(model)
        assert optimal.predicted_energy < even.predicted_energy
