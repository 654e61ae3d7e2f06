"""EX5 — extension: profile-driven selective code compression.

Reproduces the claim of "Profile-Driven Selective Code Compression"
(Xie/Wolf/Lekatsas, session 6A of the same proceedings): compressing only
the *cold* fraction of the code keeps most of the instruction-memory size
saving while avoiding almost all of the decompression performance penalty —
because refills overwhelmingly hit the hot code, which stays uncompressed.

Regenerated series: for each compressed fraction, code-size reduction and
slowdown under (a) the profile-driven coldest-first policy and (b) the
adversarial hottest-first control.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.codecomp import SelectiveCodeCompressor
from repro.isa.programs import build_firmware
from repro.report import render_table


def fraction_sweep() -> list[dict]:
    program = build_firmware(hot_functions=12, cold_functions=48, hot_calls=100)
    compressor = SelectiveCodeCompressor(icache=CacheConfig(size=512, line_size=32, ways=2))
    trace, counts = compressor.profile(program)
    rows = []
    for fraction in (0.0, 0.25, 0.5, 0.8, 1.0):
        for selection in ("coldest", "hottest"):
            if fraction in (0.0, 1.0) and selection == "hottest":
                continue  # identical to coldest at the extremes
            layout = compressor.build_layout(
                program, counts, fraction=fraction, selection=selection
            )
            report = compressor.evaluate(layout, trace)
            rows.append(
                {
                    "fraction": fraction,
                    "policy": selection,
                    "size_reduction": report.size_reduction,
                    "slowdown": report.slowdown,
                    "compressed_refills": report.compressed_refills,
                    "refills": report.refills,
                }
            )
    return rows


def test_table_ex5_selective_code_compression(benchmark):
    rows = benchmark.pedantic(fraction_sweep, rounds=1, iterations=1)
    print(
        render_table(
            ["fraction", "policy", "size reduction", "slowdown", "compressed refills"],
            [
                [f"{r['fraction']:.2f}", r["policy"],
                 f"{r['size_reduction']:+.1%}", f"{r['slowdown']:+.2%}",
                 f"{r['compressed_refills']}/{r['refills']}"]
                for r in rows
            ],
            title="\nEX5: profile-driven selective code compression (6A class)",
        )
    )
    by_key = {(r["fraction"], r["policy"]): r for r in rows}
    # Full compression achieves a large size reduction at a large penalty.
    full = by_key[(1.0, "coldest")]
    assert full["size_reduction"] > 0.4
    assert full["slowdown"] > 0.2
    # The selective sweet spot: most of the size saving, a small fraction of
    # the penalty.
    selective = by_key[(0.8, "coldest")]
    assert selective["size_reduction"] > 0.7 * full["size_reduction"]
    assert selective["slowdown"] < 0.15 * full["slowdown"]
    # Profile-direction matters: the adversarial control pays the full
    # penalty for the same bytes saved.
    adversarial = by_key[(0.8, "hottest")]
    assert adversarial["slowdown"] > 5 * selective["slowdown"]
    # Size reduction is policy-independent (same byte count compressed).
    assert abs(adversarial["size_reduction"] - selective["size_reduction"]) < 0.1
