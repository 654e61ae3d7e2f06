"""EX8 — extension: pseudo-random BIST coverage and weighting.

The test sessions of these proceedings (3C EBIST, 10C mask-based BIST) build
on two facts this experiment regenerates on the package's own gate-level
substrate:

1. pseudo-random (LFSR) coverage **saturates**: the first patterns detect
   most faults, then the curve flattens and a hard residue remains;
2. that residue is dominated by **random-pattern-resistant** faults, which
   *weighted* pseudo-random patterns (biased input probabilities) reach —
   the motivation for weighted/mixed-mode BIST.
"""

from __future__ import annotations

import pytest

from repro.circuit import (
    FaultSimulator,
    and_tree,
    enumerate_faults,
    lfsr_patterns,
    random_netlist,
    top_up_patterns,
    weighted_patterns,
)
from repro.report import render_table


def saturation_curve() -> list[dict]:
    netlist = random_netlist(num_inputs=12, num_gates=80, num_outputs=6, seed=1)
    simulator = FaultSimulator(netlist)
    patterns = lfsr_patterns(netlist.inputs, 2048, seed=2)
    checkpoints = [8, 32, 128, 512, 2048]
    curve = simulator.coverage_curve(patterns, checkpoints)
    return [{"patterns": count, "coverage": coverage} for count, coverage in curve]


def test_figure_ex8_lfsr_saturation(benchmark):
    rows = benchmark.pedantic(saturation_curve, rounds=1, iterations=1)
    print(
        render_table(
            ["LFSR patterns", "stuck-at coverage"],
            [[r["patterns"], f"{r['coverage']:.1%}"] for r in rows],
            title="\nEX8: pseudo-random BIST coverage saturation (random logic)",
        )
    )
    coverages = [r["coverage"] for r in rows]
    assert coverages == sorted(coverages)  # monotone
    assert coverages[0] > 0.5  # early patterns do most of the work
    assert coverages[-1] > 0.9
    # Saturation: the last 4x patterns buy less than the first 4x.
    early_gain = coverages[1] - coverages[0]
    late_gain = coverages[-1] - coverages[-2]
    assert late_gain < early_gain


def mixed_mode() -> dict:
    tree = and_tree(16)
    simulator = FaultSimulator(tree)
    base = lfsr_patterns(tree.inputs, 256, seed=2)
    base_result = simulator.simulate(base)
    residue = [
        fault for fault in enumerate_faults(tree) if fault not in base_result.detected
    ]
    topup = top_up_patterns(tree, residue, seed=3, max_tries=2000)
    combined = simulator.simulate(base + topup.patterns)
    return {
        "lfsr_coverage": base_result.coverage,
        "residue": len(residue),
        "stored_patterns": len(topup.patterns),
        "abandoned": len(topup.abandoned),
        "final_coverage": combined.coverage,
    }


def test_table_ex8b_mixed_mode(benchmark):
    """Mixed-mode BIST: LFSR base + a few stored deterministic patterns."""
    result = benchmark.pedantic(mixed_mode, rounds=1, iterations=1)
    print(
        render_table(
            ["metric", "value"],
            [
                ["LFSR coverage (256 patterns)", f"{result['lfsr_coverage']:.1%}"],
                ["residual faults", result["residue"]],
                ["stored deterministic patterns", result["stored_patterns"]],
                ["abandoned faults", result["abandoned"]],
                ["mixed-mode coverage", f"{result['final_coverage']:.1%}"],
            ],
            title="\nEX8b: mixed-mode BIST on the r.p.r. AND tree",
        )
    )
    # The 10C-style story: pseudo-random alone is hopeless here; a handful
    # of stored patterns (≪ residue, thanks to fault dropping) completes it.
    assert result["lfsr_coverage"] < 0.3
    assert result["final_coverage"] == 1.0
    assert result["abandoned"] == 0
    assert result["stored_patterns"] < result["residue"] / 2


def weighting_comparison() -> list[dict]:
    tree = and_tree(16)
    simulator = FaultSimulator(tree)
    rows = []
    for label, weight in (("uniform (0.5)", 0.5), ("weighted 0.75", 0.75),
                          ("weighted 0.9", 0.9)):
        result = simulator.simulate(weighted_patterns(tree.inputs, 512, weight, seed=3))
        rows.append({"source": label, "coverage": result.coverage})
    return rows


def test_table_ex8a_weighted_patterns(benchmark):
    rows = benchmark.pedantic(weighting_comparison, rounds=1, iterations=1)
    print(
        render_table(
            ["pattern source", "coverage (AND-tree, 512 patterns)"],
            [[r["source"], f"{r['coverage']:.1%}"] for r in rows],
            title="\nEX8a: weighted pseudo-random vs uniform on an r.p.r. circuit",
        )
    )
    coverages = [r["coverage"] for r in rows]
    # Coverage rises with the weight on this mostly-AND circuit.
    assert coverages == sorted(coverages)
    assert coverages[0] < 0.3  # uniform random barely scratches an AND tree
    assert coverages[-1] > 0.9  # weighting solves it
