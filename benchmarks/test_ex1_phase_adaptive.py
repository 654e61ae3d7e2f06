"""EX1 — extension: phase-adaptive address clustering.

Not in the original paper (its layout is static); this extension follows the
paper's own future-work direction — exploit program *phases*.  Phases are
detected by clustering trace windows (k-means over block-frequency vectors),
each phase gets its own clustered layout, and a migration cost is charged at
every phase boundary for blocks that change banks.

The regenerated figure sweeps the phase length: static layout wins for short
phases (migration dominates), phase-adaptive wins once phases are long
enough to amortize the copies — a crossover, exactly the shape such an
extension must show to be credible.
"""

from __future__ import annotations

import pytest

from repro.core import FlowConfig, PhasedMemoryOptimizationFlow
from repro.report import render_table
from repro.trace import MemoryAccess, PhaseDetector, ScatteredHotGenerator, Trace


def two_phase_trace(accesses_per_phase: int) -> Trace:
    """Two long program phases with disjoint fragmented hot sets."""
    events = []
    time = 0
    for seed in (1, 2):
        generator = ScatteredHotGenerator(
            num_blocks=300, num_hot=25, hot_weight=40.0,
            accesses=accesses_per_phase, seed=seed,
        )
        for event in generator.generate():
            events.append(MemoryAccess(time=time, address=event.address, kind=event.kind))
            time += 1
    return Trace.from_events(events, name=f"two_phase_{accesses_per_phase}")


def phase_length_sweep() -> list[dict]:
    rows = []
    for accesses in (10000, 20000, 40000, 80000):
        flow = PhasedMemoryOptimizationFlow(
            FlowConfig(block_size=32, max_banks=4, strategy="frequency"),
            PhaseDetector(
                window=max(1000, accesses // 10), num_clusters=2, block_size=32
            ),
        )
        result = flow.run(two_phase_trace(accesses))
        rows.append(
            {
                "phase_len": accesses,
                "phases": result.segmentation.num_phases,
                "static": result.static_energy,
                "phased": result.phased_energy,
                "migration": result.migration_cost,
                "saving": result.saving_vs_static,
            }
        )
    return rows


def test_figure_ex1_phase_length_crossover(benchmark):
    rows = benchmark.pedantic(phase_length_sweep, rounds=1, iterations=1)
    print(
        render_table(
            ["accesses/phase", "phases found", "static pJ", "phased pJ",
             "migration pJ", "saving"],
            [
                [r["phase_len"], r["phases"], r["static"], r["phased"],
                 r["migration"], f"{r['saving']:+.1%}"]
                for r in rows
            ],
            title="\nEX1: phase-adaptive clustering vs static layout (crossover)",
        )
    )
    # Two phases must be found at every length.
    assert all(r["phases"] == 2 for r in rows)
    # Crossover: static wins at the short end, adaptation at the long end.
    assert rows[0]["saving"] < 0
    assert rows[-1]["saving"] > 0
    # Savings improve monotonically with phase length.
    savings = [r["saving"] for r in rows]
    assert savings == sorted(savings)
