"""Optimal dynamic-programming memory partitioner.

This is the Benini/Macii-style partitioner the 1B-1 paper builds on: given
per-block access counts in layout order, find the division into at most ``k``
contiguous segments that minimizes total memory energy (bank access energy +
bank-select decoder energy).

The DP is exact over a chosen granularity: ``dp[m][j]`` = cheapest energy of
serving cells ``[0, j)`` with exactly ``m`` banks, with the classic O(n²·k)
recurrence ``dp[m][j] = min_i dp[m-1][i] + segment[i][j]``.  The cost model
prices the whole ``segment`` matrix at once, and each bank count ``m`` is one
``argmin`` over ``dp[m-1][:, None] + segment``.  For large footprints the block
array is first coalesced into at most ``max_dp_cells`` contiguous cells
(adjacent blocks merged), which keeps runtime bounded while preserving the
hot/cold structure — the papers do the same by partitioning at page rather
than word granularity.  The per-cell loop version of the DP is the test
oracle (``tests/partition_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import PartitionCostModel
from .spec import PartitionSpec

__all__ = ["OptimalPartitioner", "PartitionResult"]


@dataclass(frozen=True)
class PartitionResult:
    """A partition plus its predicted energy."""

    spec: PartitionSpec
    predicted_energy: float
    num_banks: int


def _coalesce(length: int, max_cells: int) -> list[int]:
    """Split ``length`` blocks into at most ``max_cells`` near-equal cells.

    Returns the number of blocks per cell (all positive, summing to length).
    """
    if length <= max_cells:
        return [1] * length
    base = length // max_cells
    remainder = length % max_cells
    return [base + (1 if index < remainder else 0) for index in range(max_cells)]


class OptimalPartitioner:
    """Exact DP partitioner (over the coalesced granularity).

    Parameters
    ----------
    max_banks:
        Upper bound on the number of banks.  The partitioner evaluates every
        bank count from 1 to ``max_banks`` and returns the cheapest — the
        decoder overhead makes the optimum interior, not extremal.
    max_dp_cells:
        Coalescing bound; the DP runs over at most this many cells.
    """

    def __init__(self, max_banks: int = 8, max_dp_cells: int = 256) -> None:
        if max_banks <= 0:
            raise ValueError(f"max_banks must be positive, got {max_banks}")
        if max_dp_cells < max_banks:
            raise ValueError(
                f"max_dp_cells ({max_dp_cells}) must be at least "
                f"max_banks ({max_banks})"
            )
        self.max_banks = max_banks
        self.max_dp_cells = max_dp_cells

    def partition(self, cost_model: PartitionCostModel, num_banks: int | None = None) -> PartitionResult:
        """Find the best partition.

        When ``num_banks`` is given the DP is solved for exactly that bank
        count; otherwise every count in ``[1, max_banks]`` is tried and the
        cheapest (including decoder overhead) wins.
        """
        if num_banks is not None and num_banks < 1:
            raise ValueError(f"num_banks must be positive, got {num_banks}")
        cells = _coalesce(cost_model.num_blocks, self.max_dp_cells)
        cell_edges = np.concatenate([[0], np.cumsum(cells)])
        n = len(cells)
        segment = cost_model.segment_costs(cell_edges)

        bank_counts = [num_banks] if num_banks is not None else list(range(1, self.max_banks + 1))
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
            # Column j >= m always has a finite candidate (i = m - 1), and
            # argmin keeps the first minimum, as a strict-< scan over i does.
            candidate = dp[m - 1][:, None] + segment[:, m:]
            choice[m, m:] = np.argmin(candidate, axis=0)
            dp[m, m:] = np.min(candidate, axis=0)

        best_result: PartitionResult | None = None
        for k in bank_counts:
            if dp[k][n] == INF:
                continue
            total_pj = dp[k][n] + cost_model.decoder_cost(k)
            if best_result is None or total_pj < best_result.predicted_energy:
                spec = self._backtrack(choice, cell_edges, k, n, cost_model)
                best_result = PartitionResult(spec=spec, predicted_energy=total_pj, num_banks=k)
        if best_result is None:  # pragma: no cover - defensive
            raise RuntimeError("DP found no feasible partition")
        return best_result

    def _backtrack(
        self,
        choice: np.ndarray,
        cell_edges: np.ndarray,
        k: int,
        n: int,
        cost_model: PartitionCostModel,
    ) -> PartitionSpec:
        edges_cells = [n]
        j = n
        for m in range(k, 0, -1):
            j = int(choice[m][j])
            edges_cells.append(j)
        edges_cells.reverse()  # [0, ..., n] in cell units
        bank_blocks = tuple(
            int(cell_edges[edges_cells[index + 1]] - cell_edges[edges_cells[index]])
            for index in range(k)
        )
        return PartitionSpec(
            block_size=cost_model.block_size,
            bank_blocks=bank_blocks,
            round_pow2=cost_model.round_pow2,
        )
