"""Analytic cost model vs trace simulation: they must agree exactly."""

import numpy as np
import pytest

from repro.partition import (
    OptimalPartitioner,
    PartitionCostModel,
    PartitionSpec,
    build_memory,
    simulate_partition,
)
from repro.trace import AccessKind, MemoryAccess, Trace


def trace_and_counts(seed=0, num_blocks=12, accesses=500, block_size=32):
    rng = np.random.default_rng(seed)
    reads = np.zeros(num_blocks, dtype=np.int64)
    writes = np.zeros(num_blocks, dtype=np.int64)
    events = []
    for time in range(accesses):
        block = int(rng.integers(0, num_blocks))
        offset = int(rng.integers(0, block_size // 4)) * 4
        if rng.random() < 0.3:
            writes[block] += 1
            kind = AccessKind.WRITE
        else:
            reads[block] += 1
            kind = AccessKind.READ
        events.append(MemoryAccess(time=time, address=block * block_size + offset, kind=kind))
    return Trace.from_events(events), reads, writes


class TestAnalyticVsSimulated:
    @pytest.mark.parametrize("bank_blocks", [(12,), (4, 8), (1, 3, 8), (3, 3, 3, 3)])
    def test_agreement(self, bank_blocks):
        trace, reads, writes = trace_and_counts()
        model = PartitionCostModel(reads=reads, writes=writes, block_size=32)
        spec = PartitionSpec(block_size=32, bank_blocks=bank_blocks)
        analytic = model.partition_cost(spec)
        simulated = simulate_partition(spec, trace)
        assert simulated.total == pytest.approx(analytic, rel=1e-9)

    def test_agreement_with_pow2_rounding(self):
        trace, reads, writes = trace_and_counts(seed=3)
        model = PartitionCostModel(reads=reads, writes=writes, block_size=32, round_pow2=True)
        spec = PartitionSpec(block_size=32, bank_blocks=(5, 7), round_pow2=True)
        analytic = model.partition_cost(spec)
        simulated = simulate_partition(spec, trace)
        assert simulated.total == pytest.approx(analytic, rel=1e-9)

    def test_optimal_result_agrees_end_to_end(self):
        trace, reads, writes = trace_and_counts(seed=7)
        model = PartitionCostModel(reads=reads, writes=writes, block_size=32)
        result = OptimalPartitioner(max_banks=4).partition(model)
        simulated = simulate_partition(result.spec, trace)
        assert simulated.total == pytest.approx(result.predicted_energy, rel=1e-9)


class TestSimulationDetails:
    def test_bank_access_counts(self):
        trace, reads, writes = trace_and_counts(seed=1)
        spec = PartitionSpec(block_size=32, bank_blocks=(6, 6))
        simulated = simulate_partition(spec, trace)
        assert sum(simulated.bank_access_counts) == len(trace)
        expected_bank0 = int((reads + writes)[:6].sum())
        assert simulated.bank_access_counts[0] == expected_bank0

    def test_leakage_included_when_asked(self):
        trace, _, _ = trace_and_counts(seed=2)
        spec = PartitionSpec(block_size=32, bank_blocks=(6, 6))
        without = simulate_partition(spec, trace).total
        with_leak = simulate_partition(spec, trace, include_leakage=True).total
        assert with_leak > without

    def test_build_memory_geometry(self):
        spec = PartitionSpec(block_size=32, bank_blocks=(2, 4))
        memory = build_memory(spec)
        assert [bank.size for bank in memory.banks] == [64, 128]
        assert memory.base == 0

    def test_rounded_simulation_routes_by_exact_extents(self):
        # With pow2 rounding, a block at the exact-extent boundary must still
        # route to its spec bank.
        trace = Trace.from_events(
            [
                MemoryAccess(time=0, address=0),  # bank 0
                MemoryAccess(time=1, address=3 * 32),  # block 3 -> bank 1
            ]
        )
        spec = PartitionSpec(block_size=32, bank_blocks=(3, 2), round_pow2=True)
        simulated = simulate_partition(spec, trace)
        assert simulated.bank_access_counts == (1, 1)
