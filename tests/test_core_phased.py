"""Tests for the phase-adaptive layout extension (EX1)."""

import pytest

from repro.core import (
    BlockLayout,
    FlowConfig,
    PhasedMemoryOptimizationFlow,
    migration_energy,
)
from repro.memory import SRAMEnergyModel
from repro.partition import PartitionSpec
from repro.trace import MemoryAccess, PhaseDetector, ScatteredHotGenerator, Trace


def two_phase_trace(accesses_per_phase=20000, seeds=(1, 2)):
    events = []
    time = 0
    for seed in seeds:
        generator = ScatteredHotGenerator(
            num_blocks=300, num_hot=25, hot_weight=40.0, accesses=accesses_per_phase, seed=seed
        )
        for event in generator.generate():
            events.append(MemoryAccess(time=time, address=event.address, kind=event.kind))
            time += 1
    return Trace.from_events(events, name="two_phase")


class TestMigrationEnergy:
    def test_identical_layouts_cost_nothing(self):
        layout = BlockLayout([0, 1, 2, 3], block_size=32)
        spec = PartitionSpec(block_size=32, bank_blocks=(2, 2))
        assert migration_energy(layout, layout, SRAMEnergyModel(), 128, spec, spec) == 0.0

    def test_within_bank_reorder_is_free_with_specs(self):
        before = BlockLayout([0, 1, 2, 3], block_size=32)
        after = BlockLayout([1, 0, 3, 2], block_size=32)  # swaps inside each bank
        spec = PartitionSpec(block_size=32, bank_blocks=(2, 2))
        assert migration_energy(before, after, SRAMEnergyModel(), 128, spec, spec) == 0.0

    def test_cross_bank_move_is_charged(self):
        before = BlockLayout([0, 1, 2, 3], block_size=32)
        after = BlockLayout([2, 1, 0, 3], block_size=32)  # 0 and 2 swap banks
        spec = PartitionSpec(block_size=32, bank_blocks=(2, 2))
        cost = migration_energy(before, after, SRAMEnergyModel(), 128, spec, spec)
        assert cost > 0

    def test_footprint_changes_charged(self):
        before = BlockLayout([0, 1], block_size=32)
        after = BlockLayout([0, 9], block_size=32)
        spec_before = PartitionSpec(block_size=32, bank_blocks=(2,))
        spec_after = PartitionSpec(block_size=32, bank_blocks=(2,))
        cost = migration_energy(
            before, after, SRAMEnergyModel(), 64, spec_before, spec_after
        )
        # block 1 leaves, block 9 enters -> two moves
        single = migration_energy(
            BlockLayout([0], 32), BlockLayout([0], 32), SRAMEnergyModel(), 64,
            PartitionSpec(block_size=32, bank_blocks=(1,)),
            PartitionSpec(block_size=32, bank_blocks=(1,)),
        )
        assert cost > single  # strictly positive and > the no-move case

    def test_fallback_without_specs_is_position_granular(self):
        before = BlockLayout([0, 1], block_size=32)
        after = BlockLayout([1, 0], block_size=32)
        cost = migration_energy(before, after, SRAMEnergyModel(), 64)
        assert cost > 0  # positions changed, conservative bound charges both


class TestPhasedFlow:
    @pytest.fixture(scope="class")
    def short_result(self):
        flow = PhasedMemoryOptimizationFlow(
            FlowConfig(block_size=32, max_banks=4, strategy="frequency"),
            PhaseDetector(window=2000, num_clusters=2, block_size=32),
        )
        return flow.run(two_phase_trace(accesses_per_phase=15000))

    @pytest.fixture(scope="class")
    def long_result(self):
        flow = PhasedMemoryOptimizationFlow(
            FlowConfig(block_size=32, max_banks=4, strategy="frequency"),
            PhaseDetector(window=6000, num_clusters=2, block_size=32),
        )
        return flow.run(two_phase_trace(accesses_per_phase=60000))

    def test_detects_two_phases(self, short_result):
        assert short_result.segmentation.num_phases == 2

    def test_migration_is_charged(self, short_result):
        assert short_result.migration_cost > 0

    def test_short_phases_static_wins(self, short_result):
        assert short_result.saving_vs_static < 0

    def test_long_phases_adaptation_wins(self, long_result):
        assert long_result.saving_vs_static > 0

    def test_phased_energy_decomposition(self, long_result):
        parts = sum(r.clustered.simulated.total for r in long_result.phase_results)
        assert long_result.phased_energy == pytest.approx(
            parts + long_result.migration_cost
        )

    def test_single_phase_trace_has_no_migration(self):
        trace = ScatteredHotGenerator(
            num_blocks=200, num_hot=20, accesses=12000, seed=3
        ).generate()
        flow = PhasedMemoryOptimizationFlow(
            FlowConfig(block_size=32, max_banks=4, strategy="frequency"),
            PhaseDetector(window=3000, num_clusters=1, block_size=32),
        )
        result = flow.run(trace)
        assert result.migration_cost == 0.0
        assert result.segmentation.num_phases == 1
