"""E4 — low-energy data management for multi-context fabrics (paper 1B-4).

Paper claim: on multimedia/DSP applications mapped to a MorphoSys-class
two-level on-chip storage, the data scheduler reduces application energy by
placing data across the on-chip levels, and "suitable data scheduling
decreases the energy required to implement the dynamic reconfiguration".

The regenerated table compares the naive schedule (all data in the big
on-chip memory, contexts loaded per kernel) with the energy-aware scheduler
(knapsack L0 placement + dependence-safe context grouping).  E4a sweeps the
L0 frame-buffer capacity.
"""

from __future__ import annotations

import pytest

from repro.reconfig import (
    EnergyAwareScheduler,
    NaiveScheduler,
    ReconfigArchitecture,
    build_alternating_app,
    build_pipeline_app,
    evaluate_schedule,
    random_app,
)
from repro.report import PaperComparison, render_comparisons, render_table

APPS = [
    ("pipeline6", lambda: build_pipeline_app(stages=6)),
    ("pipeline10", lambda: build_pipeline_app(stages=10, frame_bytes=2048)),
    ("alternating", lambda: build_alternating_app(rounds=4, contexts=4)),
    ("random_a", lambda: random_app(num_kernels=16, seed=1)),
    ("random_b", lambda: random_app(num_kernels=16, seed=2)),
]


def run_suite() -> list[dict]:
    arch = ReconfigArchitecture()
    rows = []
    for label, factory in APPS:
        app = factory()
        naive = evaluate_schedule(app, arch, NaiveScheduler().schedule(app, arch))
        smart = evaluate_schedule(app, arch, EnergyAwareScheduler().schedule(app, arch))
        rows.append(
            {
                "app": label,
                "naive_pj": naive.total,
                "smart_pj": smart.total,
                "saving": 1 - smart.total / naive.total,
                "data_saving": 1 - smart.data_energy / naive.data_energy,
                "ctx_naive": naive.context_loads,
                "ctx_smart": smart.context_loads,
            }
        )
    return rows


def test_table_e4_scheduler_savings(benchmark):
    """Regenerates the E4 table: scheduler vs naive placement per application."""
    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    print(
        render_table(
            ["application", "naive pJ", "scheduled pJ", "saving", "data saving",
             "ctx loads naive", "ctx loads sched"],
            [
                [r["app"], r["naive_pj"], r["smart_pj"], f"{r['saving']:.1%}",
                 f"{r['data_saving']:.1%}", r["ctx_naive"], r["ctx_smart"]]
                for r in rows
            ],
            title="\nE4: energy-aware data scheduling (paper 1B-4)",
        )
    )
    savings = [r["saving"] for r in rows]
    comparisons = [
        PaperComparison("E4", "energy saving vs naive", 0.30, 0.80, min(savings),
                        shape_holds=all(s > 0 for s in savings)),
    ]
    print()
    print(render_comparisons(comparisons))

    # Shape: the scheduler wins on every application, both in data energy and
    # (on context-thrashing apps) reconfiguration energy.
    assert all(r["saving"] > 0.10 for r in rows)
    assert all(r["data_saving"] > 0 for r in rows)
    alternating = next(r for r in rows if r["app"] == "alternating")
    assert alternating["ctx_smart"] < alternating["ctx_naive"]


def l0_sweep() -> list[dict]:
    app = build_pipeline_app(stages=6)
    rows = []
    for l0_size in (256, 512, 1024, 2048, 4096, 8192):
        arch = ReconfigArchitecture(l0_size=l0_size)
        naive = evaluate_schedule(app, arch, NaiveScheduler().schedule(app, arch))
        smart = evaluate_schedule(app, arch, EnergyAwareScheduler().schedule(app, arch))
        rows.append(
            {"l0": l0_size, "energy": smart.total, "saving": 1 - smart.total / naive.total}
        )
    return rows


def test_figure_e4a_l0_capacity_sweep(benchmark):
    """Figure-like series: scheduled energy vs L0 capacity (monotone, saturating)."""
    rows = benchmark.pedantic(l0_sweep, rounds=1, iterations=1)
    print(
        render_table(
            ["L0 bytes", "scheduled energy (pJ)", "saving vs naive"],
            [[r["l0"], r["energy"], f"{r['saving']:.1%}"] for r in rows],
            title="\nE4a: energy vs frame-buffer (L0) capacity",
        )
    )
    energies = [r["energy"] for r in rows]
    # Monotone non-increasing with capacity, and strictly better at the top
    # than at the bottom (capacity buys energy until the hot data fits).
    assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0]


def test_figure_e4b_context_slots_sweep(benchmark):
    """Reconfiguration loads vs resident context planes, naive vs scheduled.

    With program order (naive) the round-robin context pattern thrashes any
    context store smaller than the context count; the grouped schedule makes
    even a single-plane store suffice — the paper's point that *scheduling*
    reduces reconfiguration energy, not just more context memory.
    """

    def run():
        app = build_alternating_app(rounds=4, contexts=4)
        rows = []
        for slots in (1, 2, 3, 4):
            arch = ReconfigArchitecture(context_slots=slots)
            naive = evaluate_schedule(app, arch, NaiveScheduler().schedule(app, arch))
            smart = evaluate_schedule(
                app, arch, EnergyAwareScheduler().schedule(app, arch)
            )
            rows.append({"slots": slots, "naive_loads": naive.context_loads,
                         "smart_loads": smart.context_loads})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        render_table(
            ["context slots", "loads (naive order)", "loads (grouped schedule)"],
            [[r["slots"], r["naive_loads"], r["smart_loads"]] for r in rows],
            title="\nE4b: context loads vs resident context planes",
        )
    )
    naive_loads = [r["naive_loads"] for r in rows]
    smart_loads = [r["smart_loads"] for r in rows]
    # Naive thrashes until the store holds all contexts; the grouped schedule
    # needs only one plane to reach the minimum.
    assert naive_loads[0] > naive_loads[-1]
    assert naive_loads[-1] == 4
    assert all(loads == 4 for loads in smart_loads)
    assert all(a >= b for a, b in zip(naive_loads, naive_loads[1:]))
