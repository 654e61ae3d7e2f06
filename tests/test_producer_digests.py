"""Golden content digests of every trace producer.

Each entry of ``tests/golden/producer_digests.json`` is the
:func:`~repro.trace.io.trace_digest` of one producer's output:

* the data and the instruction trace of every bundled ISS kernel, plus one
  kernel run with ``trace_values=False``;
* each synthetic generator at its defaults;
* both samplers over one generator trace;
* a ``save_text`` → ``load_text`` round trip.

A producer rewrite that changes any field of any event shows up as a
field-level diff naming the producer.  To regenerate after an intentional
change::

    pytest tests/test_producer_digests.py --update-golden
"""

from __future__ import annotations

import json

import pytest

from repro.isa import CPU, kernel_names, load_kernel
from repro.trace import (
    HotColdGenerator,
    IntervalSampler,
    LoopNestGenerator,
    MarkovRegionGenerator,
    ScatteredHotGenerator,
    StridedSweepGenerator,
    SystematicSampler,
    ValueTraceGenerator,
    load_text,
    save_text,
    trace_digest,
)

from .test_golden_flows import GOLDEN_DIR, field_diffs

GOLDEN_PATH = GOLDEN_DIR / "producer_digests.json"

GENERATORS = (
    StridedSweepGenerator,
    HotColdGenerator,
    LoopNestGenerator,
    MarkovRegionGenerator,
    ScatteredHotGenerator,
    ValueTraceGenerator,
)


def compute_digests(tmp_path) -> dict:
    """Every producer's ``trace_digest``, keyed by ``family/case``."""
    digests = {}
    for name in kernel_names():
        result = CPU().run(load_kernel(name))
        digests[f"kernel/{name}.data"] = trace_digest(result.data_trace)
        digests[f"kernel/{name}.instr"] = trace_digest(result.instruction_trace)
    bare = CPU(trace_values=False).run(load_kernel("fir"))
    digests["kernel/fir.data.no_values"] = trace_digest(bare.data_trace)
    for generator in GENERATORS:
        digests[f"generator/{generator.__name__}"] = trace_digest(generator().generate())
    source = HotColdGenerator().generate()
    digests["sampler/SystematicSampler"] = trace_digest(
        SystematicSampler(period=7, offset=3).sample(source)
    )
    digests["sampler/IntervalSampler"] = trace_digest(
        IntervalSampler(window=50, period=400).sample(source)
    )
    path = tmp_path / "values.trc"
    save_text(ValueTraceGenerator(lines=64).generate(), path)
    digests["text/round_trip"] = trace_digest(load_text(path))
    return digests


def test_producers_match_golden(tmp_path, update_golden):
    actual = compute_digests(tmp_path)
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(actual, sort_keys=True, indent=1) + "\n")
        return
    if not GOLDEN_PATH.is_file():
        pytest.fail(
            f"golden file {GOLDEN_PATH} is missing; regenerate with "
            f"pytest tests/test_producer_digests.py --update-golden"
        )
    diffs = field_diffs(json.loads(GOLDEN_PATH.read_text()), actual)
    if diffs:
        listing = "\n  ".join(diffs)
        pytest.fail(
            f"trace producers diverged from the golden digests "
            f"({len(diffs)} producer(s)):\n  {listing}\n"
            f"If the change is intentional, refresh with --update-golden."
        )
