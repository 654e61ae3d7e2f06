"""EX3 — extension: sampled-profile optimization (speed vs accuracy).

Trace-driven energy simulation is the slow part of the whole methodology
(the calibration notes call it out explicitly).  This extension quantifies
the standard remedy: drive the clustering+partitioning flow from a *sampled*
profile and evaluate the resulting layout on the full trace.

Regenerated series: per sampling rate, (a) profiling speedup (events
processed), (b) per-block count error, (c) energy overhead of the
sample-derived layout versus the full-profile layout.  Expected shape:
speedup scales with 1/rate while the energy overhead stays within a few
percent down to ~5 % sampling, then degrades.
"""

from __future__ import annotations

import pytest

from repro.core import BlockLayout, FrequencyClustering, optimize_memory_layout
from repro.partition import OptimalPartitioner, PartitionCostModel, simulate_partition
from repro.report import render_table
from repro.trace import (
    AccessProfile,
    IntervalSampler,
    ScatteredHotGenerator,
    count_error,
    scale_counts,
)


def layout_from_sample(sample_profile, full_profile):
    order = list(FrequencyClustering().build_layout(sample_profile).order)
    known = set(order)
    order += [block for block in full_profile.blocks if block not in known]
    return BlockLayout(order, full_profile.block_size, name="sampled")


def sampling_sweep() -> list[dict]:
    trace = ScatteredHotGenerator(300, 30, 40.0, 40000, seed=4).generate()
    full_profile = AccessProfile(trace, block_size=32)
    full_flow = optimize_memory_layout(
        trace, block_size=32, max_banks=4, strategy="frequency"
    )
    full_energy = full_flow.clustered.simulated.total

    rows = [
        {
            "rate": 1.0,
            "events": len(trace),
            "count_error": 0.0,
            "energy_overhead": 0.0,
        }
    ]
    for period in (4, 10, 20, 50):
        sampler = IntervalSampler(window=100, period=100 * period)
        sampled = sampler.sample(trace)
        sample_profile = AccessProfile(sampled, block_size=32)
        estimated = scale_counts(sample_profile.access_counts(), sampler.rate)
        error = count_error(full_profile.access_counts(), estimated)

        layout = layout_from_sample(sample_profile, full_profile)
        reads, writes = layout.counts_in_order(full_profile)
        model = PartitionCostModel(reads=reads, writes=writes, block_size=32)
        spec = OptimalPartitioner(max_banks=4).partition(model).spec
        energy = simulate_partition(spec, layout.remap_trace(trace)).total
        rows.append(
            {
                "rate": sampler.rate,
                "events": len(sampled),
                "count_error": error,
                "energy_overhead": energy / full_energy - 1.0,
            }
        )
    return rows


def test_figure_ex3_sampling_speed_accuracy(benchmark):
    rows = benchmark.pedantic(sampling_sweep, rounds=1, iterations=1)
    print(
        render_table(
            ["sampling rate", "events profiled", "count error", "energy overhead"],
            [
                [f"{r['rate']:.3f}", r["events"], f"{r['count_error']:.3f}",
                 f"{r['energy_overhead']:+.2%}"]
                for r in rows
            ],
            title="\nEX3: sampled-profile optimization (full-trace evaluation)",
        )
    )
    # Events profiled shrink with the rate (the speedup lever).
    events = [r["events"] for r in rows]
    assert events == sorted(events, reverse=True)
    # Moderate sampling (>= 5%) keeps the layout within 5% of full quality.
    moderate = [r for r in rows if r["rate"] >= 0.05]
    assert all(r["energy_overhead"] < 0.05 for r in moderate)
    # Count error grows as the rate drops.
    errors = [r["count_error"] for r in rows]
    assert errors[0] <= errors[-1]
