"""EX4 — extension: composing the techniques on one platform.

The four 1B papers were published side by side but never composed.  This
capstone experiment runs each kernel on the RISC platform in four
configurations:

1. baseline,
2. + application-specific instruction-bus transform (E3, trained on the
   first half of each kernel's fetch stream),
3. + differential D-cache write-back compression (E2),
4. both together.

Expected shape: each technique contributes independently (they touch
different components — fetch bus vs off-chip data path), so the combined
saving is close to the sum of the individual savings and is never worse
than the better of the two.
"""

from __future__ import annotations

import pytest

from repro.compress import DifferentialCodec
from repro.encoding import FunctionalEncoder
from repro.isa import CPU, load_kernel
from repro.platforms import Platform, risc_platform
from repro.report import render_table

KERNELS = ["fir", "matmul", "idct_rows", "histogram"]


def run_combinations() -> list[dict]:
    rows = []
    for kernel in KERNELS:
        program = load_kernel(kernel)
        words = [event.value for event in CPU().run(program).instruction_trace]
        encoder = FunctionalEncoder.fit(
            words[: len(words) // 2], width=32, xor_previous=False
        )
        base_config = risc_platform(None).config
        configs = {
            "baseline": base_config,
            "encoding": base_config.with_ibus_encoder(encoder),
            "compression": base_config.with_codec(DifferentialCodec()),
            "both": base_config.with_ibus_encoder(encoder).with_codec(DifferentialCodec()),
        }
        energies = {
            label: Platform(config).run_program(program).breakdown.total
            for label, config in configs.items()
        }
        rows.append({"kernel": kernel, **energies})
    return rows


def test_table_ex4_combined_savings(benchmark):
    rows = benchmark.pedantic(run_combinations, rounds=1, iterations=1)

    def saving(row, label):
        return 1 - row[label] / row["baseline"]

    print(
        render_table(
            ["kernel", "baseline pJ", "+encoding", "+compression", "both"],
            [
                [r["kernel"], r["baseline"],
                 f"{saving(r, 'encoding'):.1%}",
                 f"{saving(r, 'compression'):.1%}",
                 f"{saving(r, 'both'):.1%}"]
                for r in rows
            ],
            title="\nEX4: composing instruction-bus encoding (E3) with data compression (E2)",
        )
    )
    for row in rows:
        enc, comp, both = (
            saving(row, "encoding"),
            saving(row, "compression"),
            saving(row, "both"),
        )
        # Each technique helps on its own (encoding always, compression on
        # kernels with write-back traffic).
        assert enc > 0.02, row["kernel"]
        assert comp >= -0.005, row["kernel"]
        # The combination is at least as good as either alone...
        assert both >= max(enc, comp) - 0.005, row["kernel"]
        # ...and close to additive (the components are disjoint).
        assert both >= 0.8 * (enc + comp), row["kernel"]
