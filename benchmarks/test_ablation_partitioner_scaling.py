"""A3 — ablation: DP coalescing (speed vs solution quality).

The optimal partitioner bounds its O(n²·k) dynamic program by coalescing the
block array into at most ``max_dp_cells`` cells (DESIGN.md calls this out as
the scalability design choice).  This harness measures both sides of the
trade: wall-clock time of the partitioning call (a genuine pytest-benchmark
timing, not a one-shot experiment) and the predicted-energy penalty relative
to the finest granularity.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.partition import OptimalPartitioner, PartitionCostModel
from repro.report import render_table


def make_model(num_blocks: int = 2000, seed: int = 0) -> PartitionCostModel:
    rng = np.random.default_rng(seed)
    # Zipf-ish skewed counts: a realistic hot/cold mix.
    counts = (rng.pareto(1.5, size=num_blocks) * 50).astype(np.int64)
    return PartitionCostModel(
        reads=counts, writes=(counts * 0.3).astype(np.int64), block_size=32
    )


CELL_BUDGETS = (32, 64, 128, 256, 512)


@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_dp_scaling(benchmark, cells):
    """Time the DP at each coalescing budget (pytest-benchmark timing)."""
    model = make_model()
    partitioner = OptimalPartitioner(max_banks=8, max_dp_cells=cells)
    result = benchmark(partitioner.partition, model)
    assert result.spec.total_blocks == model.num_blocks


def test_table_a3_coalescing_quality(benchmark):
    """Quality side of the trade: energy penalty vs the finest granularity."""

    def run():
        model = make_model()
        results = []
        for cells in CELL_BUDGETS:
            partitioner = OptimalPartitioner(max_banks=8, max_dp_cells=cells)
            start = time.perf_counter()
            result = partitioner.partition(model)
            elapsed = time.perf_counter() - start
            results.append(
                {"cells": cells, "energy": result.predicted_energy, "seconds": elapsed}
            )
        return results

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    finest_energy = rows[-1]["energy"]
    print(
        render_table(
            ["DP cells", "predicted energy (pJ)", "time (s)", "penalty vs finest"],
            [
                [r["cells"], r["energy"], f"{r['seconds']:.3f}",
                 f"{r['energy'] / finest_energy - 1:+.2%}"]
                for r in rows
            ],
            title="\nA3: DP coalescing budget vs solution quality (2000 blocks, 8 banks)",
        )
    )
    energies = [r["energy"] for r in rows]
    # Finer granularity never hurts quality...
    assert energies == sorted(energies, reverse=True)
    # ...and even the coarsest budget stays within a few percent.
    assert energies[0] <= 1.05 * energies[-1]
