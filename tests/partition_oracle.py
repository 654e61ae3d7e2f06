"""Loop reference for the partition DP differential tests.

:func:`partition` is the plain Benini/Macii dynamic program behind
:meth:`repro.partition.OptimalPartitioner.partition`: the segment matrix is
filled one ``segment_cost`` call per cell pair, and every ``dp[m][j]`` scans
its split points with a strict ``<``, so the first minimum wins.  It shares
the cell coalescing, the bank-count filter, the decoder-cost selection and
the backtracking with the partitioner and nothing else, so a disagreement
between the two points at the segment pricing or the row minimisation.
Slow by design: use it on test-sized cost models only.
"""

from __future__ import annotations

import numpy as np

from repro.partition import OptimalPartitioner, PartitionCostModel
from repro.partition.optimal import PartitionResult, _coalesce

__all__ = ["partition"]


def partition(
    partitioner: OptimalPartitioner,
    cost_model: PartitionCostModel,
    num_banks: int | None = None,
) -> PartitionResult:
    """:meth:`OptimalPartitioner.partition`: per-cell matrix fill and triple loop."""
    cells = _coalesce(cost_model.num_blocks, partitioner.max_dp_cells)
    cell_edges = np.concatenate([[0], np.cumsum(cells)])
    n = len(cells)

    # Pre-compute segment costs between every pair of cell boundaries.
    segment = np.empty((n + 1, n + 1))
    for i in range(n):
        for j in range(i + 1, n + 1):
            segment[i][j] = cost_model.segment_cost(int(cell_edges[i]), int(cell_edges[j]))

    bank_counts = [num_banks] if num_banks is not None else list(range(1, partitioner.max_banks + 1))
    max_k = max(bank_counts)
    if max_k > n:
        bank_counts = [k for k in bank_counts if k <= n]
        if not bank_counts:
            bank_counts = [n]
        max_k = max(bank_counts)

    INF = float("inf")
    # dp[m][j]: cheapest bank energy for blocks [0, cell j) with m banks.
    dp = np.full((max_k + 1, n + 1), INF)
    choice = np.zeros((max_k + 1, n + 1), dtype=np.int64)
    dp[0][0] = 0.0
    for m in range(1, max_k + 1):
        for j in range(m, n + 1):
            best, best_i = INF, m - 1
            for i in range(m - 1, j):
                candidate = dp[m - 1][i] + segment[i][j]
                if candidate < best:
                    best, best_i = candidate, i
            dp[m][j] = best
            choice[m][j] = best_i

    best_result: PartitionResult | None = None
    for k in bank_counts:
        if dp[k][n] == INF:
            continue
        total_pj = dp[k][n] + cost_model.decoder_cost(k)
        if best_result is None or total_pj < best_result.predicted_energy:
            spec = partitioner._backtrack(choice, cell_edges, k, n, cost_model)
            best_result = PartitionResult(spec=spec, predicted_energy=total_pj, num_banks=k)
    if best_result is None:
        raise RuntimeError("DP found no feasible partition")
    return best_result
