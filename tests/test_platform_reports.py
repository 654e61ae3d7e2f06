"""Golden reports of every platform path, compared exactly.

Each entry of ``tests/golden/platform_reports.json`` is every field of one
report, with floats written as ``float.hex()`` so that a one-ulp change in
any energy shows up.  The cases cover each way a trace reaches a cache:

* ``Platform.run_program`` on the RISC and VLIW presets, with no codec and
  with :class:`~repro.compress.DifferentialCodec`, on two kernels that miss
  on both the I- and the D-side, plus a small-cache platform on which both
  caches thrash;
* one instruction-bus encoder of each kind (``XorDiffEncoder`` and a
  fitted ``FunctionalEncoder``);
* a data-only ``run_traces`` and a kernel run with ``trace_values=False``;
* ``SPMPlatform.run_traces`` with and without an allocation;
* ``SelectiveCodeCompressor.evaluate`` at fractions 0, 0.5 and 1.

To regenerate after an intentional change::

    pytest tests/test_platform_reports.py --update-golden
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cache import CacheConfig
from repro.codecomp import SelectiveCodeCompressor
from repro.compress import DifferentialCodec
from repro.encoding import FunctionalEncoder, XorDiffEncoder
from repro.isa import CPU, load_kernel
from repro.isa.programs import build_firmware
from repro.platforms import Platform, PlatformConfig, risc_platform, vliw_platform
from repro.spm import SPMAllocator, SPMConfig, SPMPlatform
from repro.trace import AccessProfile, ScatteredHotGenerator

from .test_golden_flows import GOLDEN_DIR, field_diffs

GOLDEN_PATH = GOLDEN_DIR / "platform_reports.json"

#: Caches small enough that ``quicksort`` misses hundreds of times on both
#: sides and evicts dirty lines.
SMALL_CACHES = PlatformConfig(
    name="small",
    icache=CacheConfig(size=128, line_size=16, ways=2),
    dcache=CacheConfig(size=128, line_size=16, ways=2),
)


def canonical(value):
    """A report as plain JSON: dataclasses become dicts, floats ``.hex()``."""
    if dataclasses.is_dataclass(value):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, float):
        return value.hex()
    return value


def _code_report(report) -> dict:
    fields = canonical(dataclasses.replace(report, layout=None))
    fields["layout"] = {
        "compressed_blocks": sorted(report.layout.compressed_blocks),
        "stored_size": report.layout.stored_size,
    }
    return fields


def compute_reports() -> dict:
    """Every pinned report, keyed by ``family/case``."""
    reports = {}
    for kernel in ("fir", "transpose"):
        program = load_kernel(kernel)
        for make in (risc_platform, vliw_platform):
            for codec in (None, DifferentialCodec()):
                report = make(codec).run_program(program)
                label = type(codec).__name__ if codec else "none"
                reports[f"platform/{report.platform}/{kernel}/{label}"] = canonical(report)
    quicksort = load_kernel("quicksort")
    for codec in (None, DifferentialCodec()):
        report = Platform(SMALL_CACHES.with_codec(codec)).run_program(quicksort)
        label = type(codec).__name__ if codec else "none"
        reports[f"platform/small/quicksort/{label}"] = canonical(report)

    crc32 = load_kernel("crc32")
    run = CPU().run(crc32)
    fetch_words = run.instruction_trace.values.tolist()
    encoders = {
        "XorDiffEncoder": XorDiffEncoder(32),
        "FunctionalEncoder": FunctionalEncoder.fit(
            fetch_words[: len(fetch_words) // 2], width=32, xor_previous=False
        ),
    }
    for label, encoder in encoders.items():
        config = risc_platform(DifferentialCodec()).config.with_ibus_encoder(encoder)
        reports[f"ibus/risc/crc32/{label}"] = canonical(Platform(config).run_program(crc32))

    transpose = CPU().run(load_kernel("transpose"))
    reports["data_only/risc/transpose"] = canonical(
        risc_platform(DifferentialCodec()).run_traces(transpose.data_trace)
    )
    bare = CPU(trace_values=False).run(load_kernel("fir"))
    reports["no_values/risc/fir"] = canonical(
        risc_platform(DifferentialCodec()).run_traces(bare.data_trace, bare.instruction_trace)
    )

    trace = ScatteredHotGenerator(
        num_blocks=120, num_hot=12, hot_weight=20.0, accesses=4000, seed=5
    ).generate()
    allocation = SPMAllocator(SPMConfig(size=256), cache_path_energy=50.0).allocate(
        AccessProfile(trace, block_size=32)
    )
    spm = SPMPlatform()
    reports["spm/none"] = canonical(spm.run_traces(trace))
    reports["spm/allocated"] = canonical(spm.run_traces(trace, allocation))

    firmware = build_firmware(hot_functions=12, cold_functions=48, hot_calls=60)
    compressor = SelectiveCodeCompressor(icache=CacheConfig(size=512, line_size=32, ways=2))
    fetches, counts = compressor.profile(firmware)
    for fraction in (0.0, 0.5, 1.0):
        layout = compressor.build_layout(firmware, counts, fraction)
        reports[f"code/firmware/{fraction}"] = _code_report(
            compressor.evaluate(layout, fetches)
        )
    return reports


def test_platform_reports_match_golden(update_golden):
    actual = compute_reports()
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(actual, sort_keys=True, indent=1) + "\n")
        return
    if not GOLDEN_PATH.is_file():
        pytest.fail(
            f"golden file {GOLDEN_PATH} is missing; regenerate with "
            f"pytest tests/test_platform_reports.py --update-golden"
        )
    diffs = field_diffs(json.loads(GOLDEN_PATH.read_text()), actual)
    if diffs:
        listing = "\n  ".join(diffs)
        pytest.fail(
            f"platform reports diverged from the golden ({len(diffs)} field(s)):\n"
            f"  {listing}\nIf the change is intentional, refresh with --update-golden."
        )
