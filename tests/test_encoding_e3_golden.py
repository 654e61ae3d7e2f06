"""Golden E3 scoreboards, compared exactly.

``tests/golden/e3_scoreboards.json`` holds, for each of the seven E3
kernels of ``benchmarks/test_e3_instruction_encoding.py``, every field of
every scoreboard report of ``TransformSelector(width=32,
train_fraction=0.5)`` (the reduction as ``float.hex()``), the winner, and
the partner tables of both functional transforms trained on the first half
of the fetch stream.

To regenerate after an intentional change::

    pytest tests/test_encoding_e3_golden.py --update-golden
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.encoding import FunctionalEncoder, TransformSelector

from .test_golden_flows import GOLDEN_DIR, field_diffs

GOLDEN_PATH = GOLDEN_DIR / "e3_scoreboards.json"

KERNELS = ("fir", "dot_product", "matmul", "idct_rows", "crc32", "saxpy", "histogram")
TRAIN_FRACTION = 0.5


def compute_scoreboards(kernel_runs) -> dict:
    """Every pinned scoreboard, keyed by kernel."""
    selector = TransformSelector(width=32, train_fraction=TRAIN_FRACTION)
    boards = {}
    for kernel in KERNELS:
        words = kernel_runs(kernel).instruction_trace.values.tolist()
        selection = selector.select(words)
        cut = max(1, int(len(words) * TRAIN_FRACTION))
        boards[kernel] = {
            "best": selection.best_report.encoder_name,
            "scoreboard": [
                {**dataclasses.asdict(report), "reduction": report.reduction.hex()}
                for report in selection.scoreboard
            ],
            "partners": {
                name: FunctionalEncoder.fit(
                    words[:cut], width=32, xor_previous=xor_previous
                ).partners
                for name, xor_previous in (("functional", False), ("functional+xor", True))
            },
        }
    return boards


def test_e3_scoreboards_match_golden(kernel_runs, update_golden):
    actual = compute_scoreboards(kernel_runs)
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(actual, sort_keys=True, indent=1) + "\n")
        return
    if not GOLDEN_PATH.is_file():
        pytest.fail(
            f"golden file {GOLDEN_PATH} is missing; regenerate with "
            f"pytest tests/test_encoding_e3_golden.py --update-golden"
        )
    diffs = field_diffs(json.loads(GOLDEN_PATH.read_text()), actual)
    if diffs:
        listing = "\n  ".join(diffs)
        pytest.fail(
            f"E3 scoreboards diverged from the golden ({len(diffs)} field(s)):\n"
            f"  {listing}\nIf the change is intentional, refresh with --update-golden."
        )
