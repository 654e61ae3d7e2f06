"""Property-based contracts of the observability layer.

Two standing promises, hypothesis-searched for counterexamples:

* **Recording never changes a result, bit for bit.**  Attaching a
  recorder — null or live — to any playback layer leaves every computed
  number exactly as it was: counters are flushed from totals the
  simulation computes anyway, never folded into them.
* **Shard merging is deterministic.**  The canonical merged timeline of
  an instrumented sweep is bit-identical whether the sweep ran with
  ``jobs=1`` or ``jobs=4`` and no matter how the shard files are
  enumerated, and its merged energy counters reconcile *exactly* with
  the parent-visible :data:`FlowResult` totals.
"""

from __future__ import annotations

import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import SweepTask, TraceSpec, run_sweep
from repro.memory import PartitionedMemory, SleepPolicy, simulate_bank_sleep
from repro.obs import (
    JsonlRecorder,
    NullRecorder,
    load_shards,
    merge_shards,
    read_log,
    recording,
)
from repro.obs.clock import TickClock
from repro.obs.counters import (
    FLOW_TOTAL_PJ,
    PLAY_ENERGY_PJ,
    PLAY_EVENTS,
    SLEEP_ENERGY_PJ,
)
from repro.trace import AccessKind, MemoryAccess, Trace

BANK_BYTES = 256

# One event: (offset within the memory, is_write, timestamp gap to previous).
event_strategy = st.tuples(
    st.integers(min_value=0, max_value=4 * BANK_BYTES - 4),
    st.booleans(),
    st.integers(min_value=0, max_value=500),
)

trace_strategy = st.tuples(
    st.integers(min_value=1, max_value=4),  # number of banks
    st.lists(event_strategy, min_size=0, max_size=120),
)


def build_case(case) -> tuple[list[int], Trace]:
    """Materialize a generated case as (bank_sizes, in-range trace)."""
    num_banks, raw_events = case
    total_bytes = num_banks * BANK_BYTES
    events = []
    time = 0
    for offset, is_write, gap in raw_events:
        time += gap
        events.append(
            MemoryAccess(
                time=time,
                address=offset % total_bytes,
                kind=AccessKind.WRITE if is_write else AccessKind.READ,
            )
        )
    return [BANK_BYTES] * num_banks, Trace.from_events(events, name="prop")


def jsonl_recorder() -> tuple[JsonlRecorder, io.StringIO]:
    sink = io.StringIO()
    return JsonlRecorder(sink, clock=TickClock()), sink


@settings(max_examples=100, deadline=None)
@given(trace_strategy)
def test_recording_never_changes_play_results(case):
    bank_sizes, trace = build_case(case)
    bare = PartitionedMemory(bank_sizes).play(trace, include_leakage=True)
    with recording(NullRecorder()):
        nulled = PartitionedMemory(bank_sizes).play(trace, include_leakage=True)
    recorder, sink = jsonl_recorder()
    memory = PartitionedMemory(bank_sizes)
    with recorder, recording(recorder):
        recorded = memory.play(trace, include_leakage=True)

    for report in (nulled, recorded):
        assert report.total == bare.total
        assert report.bank_energy == bare.bank_energy
        assert report.decoder_energy == bare.decoder_energy
        assert report.leakage_energy == bare.leakage_energy

    # And the recorded counters replay to the same bits.
    counters = read_log(sink.getvalue().splitlines()).counters()
    assert counters.total(PLAY_EVENTS) == len(trace)
    assert counters.grand_total(PLAY_ENERGY_PJ) == bare.total


@settings(max_examples=100, deadline=None)
@given(trace_strategy, st.integers(min_value=0, max_value=300))
def test_recording_never_changes_sleep_results(case, timeout_cycles):
    bank_sizes, trace = build_case(case)
    bank_bases = [i * BANK_BYTES for i in range(len(bank_sizes))]
    policy = SleepPolicy(timeout_cycles=timeout_cycles)

    bare = simulate_bank_sleep(bank_sizes, bank_bases, trace, policy)
    with recording(NullRecorder()):
        nulled = simulate_bank_sleep(bank_sizes, bank_bases, trace, policy)
    recorder, sink = jsonl_recorder()
    with recorder, recording(recorder):
        recorded = simulate_bank_sleep(bank_sizes, bank_bases, trace, policy)

    assert bare == nulled == recorded

    counters = read_log(sink.getvalue().splitlines()).counters()
    assert counters.total(SLEEP_ENERGY_PJ, component="managed") == bare.managed_leakage
    assert counters.total(SLEEP_ENERGY_PJ, component="wake") == bare.wake_energy
    assert (
        counters.total(SLEEP_ENERGY_PJ, component="always_on")
        == bare.always_on_leakage
    )


# One sweep task: (trace seed, max_banks); unique pairs -> unique fingerprints.
sweep_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from([2, 3, 4])),
    min_size=1,
    max_size=3,
    unique=True,
)


@settings(max_examples=5, deadline=None)
@given(sweep_strategy, st.integers(min_value=0, max_value=2**32 - 1))
def test_shard_merge_is_deterministic_and_reconciles(tmp_path_factory, picks, shuffle_seed):
    """jobs=1, jobs=4, and shuffled shard enumeration merge bit-identically,
    and the merged energy counters equal the FlowResult totals exactly."""
    tasks = [
        SweepTask.make(
            "e1_clustering",
            TraceSpec.synthetic(
                "scattered_hot", accesses=800, num_blocks=40, seed=seed
            ),
            {"max_banks": banks},
        )
        for seed, banks in picks
    ]
    root = tmp_path_factory.mktemp("shards")
    serial_dir, parallel_dir = root / "serial", root / "parallel"
    run_sweep(tasks, jobs=1, cache=None, shard_dir=serial_dir, shard_clock=TickClock)
    report = run_sweep(
        tasks, jobs=4, cache=None, shard_dir=parallel_dir, shard_clock=TickClock
    )

    parallel_shards = load_shards(parallel_dir)
    shuffled = list(parallel_shards)
    random.Random(shuffle_seed).shuffle(shuffled)
    canonical = [
        json.dumps(merge_shards(shards).canonical(), sort_keys=True)
        for shards in (load_shards(serial_dir), parallel_shards, shuffled)
    ]
    assert canonical[0] == canonical[1] == canonical[2]

    # Merged counters reconcile exactly (==) with the parent-visible
    # results: both sides are summed in canonical (fingerprint) order, so
    # even float addition order agrees.
    merged = merge_shards(parallel_shards)
    expected: dict[str, float] = {}
    ordered = sorted(
        zip(tasks, report.results), key=lambda pair: pair[0].spec_fingerprint()
    )
    for _task, result in ordered:
        for stage, variant in result["variants"].items():
            expected[stage] = expected.get(stage, 0.0) + variant["simulated"]["total"]
    observed = {
        str(dict(key).get("stage")): value
        for key, value in merged.counter_totals().series(FLOW_TOTAL_PJ).items()
    }
    assert observed == expected
    assert all(exact for *_rest, exact in merged.reconciliation())
