"""A2 — ablation: compressor choice (differential vs LZW vs zero-run).

DESIGN.md calls out the codec as a design choice.  The paper argues the
differential scheme fits the hardware budget and the data statistics of
cache lines; LZW (used by the test-compression community, session 2C) needs
long payloads to warm its dictionary, and zero-run only wins on sparse data.

This ablation measures (a) pure compression ratio per codec per data class
and (b) end-to-end platform energy including each unit's hardware cost.
"""

from __future__ import annotations

import statistics

import pytest

from repro.compress import BDICodec, DifferentialCodec, LZWCodec, ZeroRunCodec
from repro.isa.programs import build_idct_rows
from repro.platforms import risc_platform
from repro.report import render_table
from repro.trace import ValueTraceGenerator

# LZW's dictionary CAM makes it several times costlier per byte in hardware.
UNIT_COSTS = {"differential": 1.0, "zero_run": 0.8, "bdi": 0.9, "lzw": 4.0}


def lines_of(smoothness: float, seed: int) -> list[bytes]:
    trace = ValueTraceGenerator(lines=150, line_bytes=32, smoothness=smoothness, seed=seed).generate()
    lines: dict[int, dict[int, int]] = {}
    for event in trace:
        lines.setdefault(event.address // 32, {})[(event.address % 32) // 4] = event.value
    return [
        b"".join(words.get(i, 0).to_bytes(4, "little") for i in range(8))
        for words in lines.values()
    ]


def sparse_lines(seed: int = 2) -> list[bytes]:
    """Lines that are mostly zero words with a few small values."""
    import numpy as np

    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(150):
        words = [0] * 8
        for position in rng.choice(8, size=2, replace=False):
            words[position] = int(rng.integers(0, 128))
        lines.append(b"".join(w.to_bytes(4, "little") for w in words))
    return lines


def ratio_grid() -> list[dict]:
    codecs = [DifferentialCodec(), ZeroRunCodec(), BDICodec(), LZWCodec()]
    data_classes = {
        "smooth (media)": lines_of(0.95, seed=1),
        "mixed": lines_of(0.6, seed=2),
        "random": lines_of(0.0, seed=3),
        "sparse (zeros)": sparse_lines(),
    }
    rows = []
    for class_name, lines in data_classes.items():
        entry = {"class": class_name}
        for codec in codecs:
            ratios = [codec.compress(line).ratio for line in lines]
            entry[codec.name] = statistics.mean(ratios)
        rows.append(entry)
    return rows


def test_ablation_codec_ratios(benchmark):
    rows = benchmark.pedantic(ratio_grid, rounds=1, iterations=1)
    print(
        render_table(
            ["data class", "differential", "zero_run", "bdi", "lzw"],
            [
                [r["class"], f"{r['differential']:.2f}", f"{r['zero_run']:.2f}",
                 f"{r['bdi']:.2f}", f"{r['lzw']:.2f}"]
                for r in rows
            ],
            title="\nA2: mean compression ratio by codec and data class (lower = better)",
        )
    )
    by_class = {r["class"]: r for r in rows}
    # Differential wins on smooth media data.
    smooth = by_class["smooth (media)"]
    assert smooth["differential"] < smooth["zero_run"]
    assert smooth["differential"] < smooth["lzw"]
    # Zero-run wins on sparse data.
    sparse = by_class["sparse (zeros)"]
    assert sparse["zero_run"] <= sparse["differential"]
    # Nothing expands meaningfully on random data (escape-bounded).
    random_row = by_class["random"]
    assert all(
        random_row[name] <= 1.02
        for name in ("differential", "zero_run", "bdi", "lzw")
    )
    # BDI's fixed widths never beat variable-width differential on smooth data.
    assert smooth["differential"] <= smooth["bdi"]


def platform_energy_per_codec() -> list[dict]:
    program = build_idct_rows(rows=128)
    base = risc_platform(None).run_program(program)
    rows = [{"codec": "(none)", "energy": base.breakdown.total, "saving": 0.0}]
    for codec in (DifferentialCodec(), ZeroRunCodec(), BDICodec(), LZWCodec()):
        report = risc_platform(codec).run_program(program)
        # Re-price the unit energy with this codec's hardware-cost factor.
        repriced = report.breakdown
        repriced.compression_unit *= UNIT_COSTS[codec.name]
        rows.append(
            {
                "codec": codec.name,
                "energy": repriced.total,
                "saving": 1 - repriced.total / base.breakdown.total,
            }
        )
    return rows


def test_ablation_codec_platform_energy(benchmark):
    rows = benchmark.pedantic(platform_energy_per_codec, rounds=1, iterations=1)
    print(
        render_table(
            ["codec", "energy (pJ)", "saving"],
            [[r["codec"], r["energy"], f"{r['saving']:.1%}"] for r in rows],
            title="\nA2b: end-to-end platform energy per codec (unit hardware cost included)",
        )
    )
    by_name = {r["codec"]: r["energy"] for r in rows}
    # Both lightweight word-granular codecs beat no-compression; LZW's
    # dictionary hardware never pays for itself at cache-line granularity.
    # (On this small-value DSP data zero-run is competitive with differential;
    # the ratio grid above shows differential's robustness across classes.)
    assert by_name["differential"] < by_name["(none)"]
    assert by_name["zero_run"] < by_name["(none)"]
    assert by_name["differential"] < by_name["lzw"]
    assert by_name["lzw"] > min(by_name["differential"], by_name["zero_run"])
