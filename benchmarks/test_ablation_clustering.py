"""A1 — ablation: clustering algorithm choice.

DESIGN.md calls out the affinity metric and ordering heuristic as design
choices.  This ablation compares, on the same fragmented workloads:

* identity (no clustering — the partitioning-alone baseline),
* random permutation (the lower bound: destroys even natural locality),
* frequency ordering (counts only),
* affinity clustering (co-occurrence graph + density ordering),
* affinity + local-search refinement.

Expected shape: random ≥ identity ≥ frequency ≈ affinity(±refinement), where
"≥" is energy (lower is better).
"""

from __future__ import annotations

import pytest

from repro.core import FlowConfig, MemoryOptimizationFlow
from repro.report import render_table
from repro.trace import ScatteredHotGenerator

STRATEGIES = [
    ("identity", {}),
    ("random", {"seed": 3}),
    ("frequency", {}),
    ("affinity", {"window": 16}),
    ("affinity+refine", {"window": 16, "refine_passes": 2}),
]


def run_ablation() -> list[dict]:
    trace = ScatteredHotGenerator(400, 20, 60.0, 25000, seed=6).generate()
    rows = []
    for label, options in STRATEGIES:
        strategy = "affinity" if label.startswith("affinity") else label
        flow = MemoryOptimizationFlow(
            FlowConfig(
                block_size=32, max_banks=4, strategy=strategy, strategy_options=options
            )
        ).run(trace)
        rows.append(
            {
                "strategy": label,
                "energy": flow.clustered.simulated.total,
                "saving_vs_identity": None,  # filled below
            }
        )
    identity_energy = next(r["energy"] for r in rows if r["strategy"] == "identity")
    for row in rows:
        row["saving_vs_identity"] = 1 - row["energy"] / identity_energy
    return rows


def test_ablation_clustering_strategies(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print(
        render_table(
            ["strategy", "energy (pJ)", "saving vs identity"],
            [[r["strategy"], r["energy"], f"{r['saving_vs_identity']:+.1%}"] for r in rows],
            title="\nA1: clustering strategy ablation (4 banks, fragmented hot set)",
        )
    )
    by_name = {r["strategy"]: r["energy"] for r in rows}
    # Random must not beat identity (it destroys locality).
    assert by_name["random"] >= by_name["identity"] * 0.98
    # Frequency and affinity must clearly beat identity.
    assert by_name["frequency"] < 0.9 * by_name["identity"]
    assert by_name["affinity"] < 0.9 * by_name["identity"]
    # Refinement never hurts (same or better).
    assert by_name["affinity+refine"] <= by_name["affinity"] * 1.02


def test_ablation_block_size(benchmark):
    """Granularity ablation: finer blocks expose more fragmentation to fix."""

    def run():
        from repro.core import trace_from_kernel

        trace = trace_from_kernel("aos_field_sum")
        rows = []
        for block_size in (8, 16, 32, 64):
            flow = MemoryOptimizationFlow(
                FlowConfig(block_size=block_size, max_banks=4, strategy="affinity")
            ).run(trace)
            rows.append({"block": block_size, "saving": flow.saving_vs_partitioned})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        render_table(
            ["block bytes", "saving vs partitioned"],
            [[r["block"], f"{r['saving']:.1%}"] for r in rows],
            title="\nA1b: clustering gain vs block granularity (aos_field_sum, 32B structs)",
        )
    )
    # The hot field is 4 bytes inside a 32-byte struct: gains must shrink as
    # blocks grow past the field size and vanish at the struct size.
    assert rows[0]["saving"] > rows[-1]["saving"]
    assert rows[0]["saving"] > 0.05
    assert abs(rows[-1]["saving"]) < 0.05
