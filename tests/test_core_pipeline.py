"""Tests for the end-to-end optimization flow."""

import pytest

from repro.core import FlowConfig, MemoryOptimizationFlow, optimize_memory_layout
from repro.trace import ScatteredHotGenerator, Trace


@pytest.fixture(scope="module")
def scattered_trace():
    return ScatteredHotGenerator(
        num_blocks=150, num_hot=15, hot_weight=25.0, accesses=10000, seed=4
    ).generate()


@pytest.fixture(scope="module")
def flow_result(scattered_trace):
    return MemoryOptimizationFlow(
        FlowConfig(block_size=32, max_banks=4, strategy="affinity")
    ).run(scattered_trace)


class TestFlowResult:
    def test_three_variants_present(self, flow_result):
        assert flow_result.monolithic.spec.num_banks == 1
        assert flow_result.partitioned.spec.num_banks >= 1
        assert flow_result.clustered.spec.num_banks >= 1

    def test_partitioning_beats_monolithic(self, flow_result):
        assert flow_result.partitioned.simulated.total < flow_result.monolithic.simulated.total

    def test_clustering_beats_partitioning_on_scattered_data(self, flow_result):
        assert flow_result.clustered.simulated.total < flow_result.partitioned.simulated.total
        assert flow_result.saving_vs_partitioned > 0.1

    def test_savings_are_consistent(self, flow_result):
        expected = 1 - flow_result.clustered.simulated.total / flow_result.monolithic.simulated.total
        assert flow_result.saving_vs_monolithic == pytest.approx(expected)

    def test_predicted_matches_simulated(self, flow_result):
        for variant in (flow_result.monolithic, flow_result.partitioned, flow_result.clustered):
            assert variant.simulated.total == pytest.approx(variant.predicted_energy, rel=1e-9)

    def test_profile_summary_present(self, flow_result):
        assert flow_result.profile_summary["accesses"] == 10000

    def test_layouts_cover_same_blocks(self, flow_result):
        assert sorted(flow_result.clustered.layout.order) == sorted(
            flow_result.partitioned.layout.order
        )


class TestFlowConfig:
    def test_strategy_instance_accepted(self, scattered_trace):
        from repro.core import FrequencyClustering

        result = MemoryOptimizationFlow(
            FlowConfig(strategy=FrequencyClustering(), max_banks=4)
        ).run(scattered_trace)
        assert result.clustered.layout.name == "frequency"

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ValueError, match="partitioner.*'quantum'"):
            FlowConfig(partitioner="quantum")

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("block_size", 0),
            ("block_size", -32),
            ("block_size", 32.5),
            ("block_size", True),
            ("max_banks", 1.5),
            ("max_banks", "4"),
            ("round_pow2", "no"),
            ("round_pow2", 1),
            ("include_leakage", "no"),
            ("include_leakage", 0),
            ("strategy", "affinty"),
            ("sram_model", 3),
            ("decoder_model", "fast"),
            ("strategy_options", 16),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"FlowConfig.{field}.*{value!r}"):
            FlowConfig(**{field: value})

    def test_even_partitioner_usable(self, scattered_trace):
        result = MemoryOptimizationFlow(
            FlowConfig(partitioner="even", max_banks=4)
        ).run(scattered_trace)
        assert result.partitioned.spec.num_banks == 4

    def test_greedy_partitioner_usable(self, scattered_trace):
        result = MemoryOptimizationFlow(
            FlowConfig(partitioner="greedy", max_banks=4)
        ).run(scattered_trace)
        assert result.partitioned.spec.num_banks <= 4

    def test_strategy_options_forwarded(self, scattered_trace):
        result = optimize_memory_layout(
            scattered_trace,
            strategy="affinity",
            strategy_options={"window": 8, "refine_passes": 1},
            max_banks=4,
        )
        assert result.clustered.layout.name == "affinity"


class TestFlowValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            MemoryOptimizationFlow().run(Trace.from_events([]))

    def test_instruction_only_trace_rejected(self):
        from repro.trace import AddressSpace, MemoryAccess

        trace = Trace.from_events([MemoryAccess(time=0, address=0, space=AddressSpace.INSTRUCTION)])
        with pytest.raises(ValueError):
            MemoryOptimizationFlow().run(trace)


class TestKernelIntegration:
    def test_kernel_flow_end_to_end(self):
        from repro.core import trace_from_kernel

        trace = trace_from_kernel("aos_field_sum")
        result = optimize_memory_layout(trace, block_size=8, max_banks=4, strategy="affinity")
        assert result.saving_vs_partitioned > 0.05
        assert result.saving_vs_monolithic > 0.15
