"""Property-based equivalence: per-event oracle == chunked kernel.

Every trace consumer in ``repro`` is one fold over columnar chunks, pinned
here against its per-event reference in ``tests/playback_oracle.py``.  The
playback properties feed one generated trace to the kernel two ways — in
memory as a ``Trace`` (one chunk), and packed into a ``.tstore`` replayed
by ``open_store`` chunk by chunk — and require each result to equal the
oracle's with ``==``: bit-identical floats, identical counts, identical
dict order.  Chunk sizes are drawn past the maximum trace
length (120), so one event per chunk, chunks straddling idle intervals and
the whole trace in one chunk are all exercised.  The round-trip property
pins ``trace_digest`` the same way: oracle == digest on every form.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batch.flows import trace_to_application
from repro.core.layout import BlockLayout
from repro.memory import PartitionedMemory, SleepPolicy, simulate_bank_sleep
from repro.partition.evaluate import SimulatedPartitionEnergy, build_memory, simulate_partition
from repro.partition.spec import PartitionSpec
from repro.reconfig.scheduler import EnergyAwareScheduler
from repro.spm import SPMAllocator, SPMConfig
from repro.trace import (
    AccessKind,
    MemoryAccess,
    Trace,
    address_entropy,
    region_transition_matrix,
    stride_histogram,
)
from repro.trace.io import trace_digest
from repro.trace.profile import AccessProfile
from repro.trace.store import load_store, open_store, save_store, store_digest

from . import playback_oracle as oracle

BANK_BYTES = 256

# One event: (offset, is_write, timestamp gap, size, optional value payload).
event_strategy = st.tuples(
    st.integers(min_value=0, max_value=4 * BANK_BYTES - 8),
    st.booleans(),
    st.integers(min_value=0, max_value=500),
    st.sampled_from([1, 2, 4, 8]),
    st.one_of(st.none(), st.integers(min_value=-(2**31), max_value=2**31)),
)

trace_strategy = st.tuples(
    st.integers(min_value=1, max_value=4),  # number of banks
    st.lists(event_strategy, min_size=0, max_size=120),
    st.booleans(),  # carry value payloads at all
)

#: Chunk sizes deliberately overshoot the maximum trace length (120), so
#: the whole-trace-in-one-chunk case is drawn as often as chunk=1.
chunk_strategy = st.integers(min_value=1, max_value=300)


def build_case(case) -> tuple[list[int], Trace]:
    """Materialize a generated case as (bank_sizes, in-range trace)."""
    num_banks, raw_events, with_values, = case
    total_bytes = num_banks * BANK_BYTES
    events = []
    time = 0
    for offset, is_write, gap, size, value in raw_events:
        time += gap
        events.append(
            MemoryAccess(
                time=time,
                address=offset % total_bytes,
                size=size,
                kind=AccessKind.WRITE if is_write else AccessKind.READ,
                value=value if with_values else None,
            )
        )
    return [BANK_BYTES] * num_banks, Trace.from_events(events, name="prop")


def packed(tmp_path_factory, trace: Trace, chunk_size: int):
    """Pack ``trace`` into a fresh store; return its path."""
    root = tmp_path_factory.mktemp("store")
    return save_store(trace, root / "prop.tstore", chunk_size=chunk_size)


def both_views(tmp_path_factory, trace: Trace, chunk_size: int) -> list:
    """``trace`` in memory and as a ``StreamedTrace`` of its packed store."""
    path = packed(tmp_path_factory, trace, chunk_size)
    return [trace, open_store(path)]


@settings(max_examples=150, deadline=None)
@given(trace_strategy, chunk_strategy)
def test_round_trip_is_bit_identical(tmp_path_factory, case, chunk_size):
    _bank_sizes, trace = build_case(case)
    path = packed(tmp_path_factory, trace, chunk_size)
    loaded = load_store(path, verify=True)
    assert len(loaded) == len(trace)
    for want, got in zip(trace, loaded):
        assert want == got
    reference = oracle.trace_digest(trace)
    assert store_digest(path) == reference
    for view in (trace, loaded, open_store(path)):
        assert trace_digest(view) == reference


@settings(max_examples=150, deadline=None)
@given(trace_strategy, chunk_strategy)
def test_play_three_way_identical(tmp_path_factory, case, chunk_size):
    bank_sizes, trace = build_case(case)
    reference_memory = PartitionedMemory(bank_sizes)
    reference = oracle.play(reference_memory, trace, include_leakage=True)
    for view in both_views(tmp_path_factory, trace, chunk_size):
        memory = PartitionedMemory(bank_sizes)
        assert memory.play(view, include_leakage=True) == reference
        assert [(b.reads, b.writes) for b in memory.banks] == [
            (b.reads, b.writes) for b in reference_memory.banks
        ]


@settings(max_examples=150, deadline=None)
@given(trace_strategy, chunk_strategy, st.integers(min_value=0, max_value=300))
def test_bank_sleep_three_way_identical(
    tmp_path_factory, case, chunk_size, timeout_cycles
):
    bank_sizes, trace = build_case(case)
    bank_bases = [i * BANK_BYTES for i in range(len(bank_sizes))]
    policy = SleepPolicy(timeout_cycles=timeout_cycles)
    reference = oracle.simulate_bank_sleep(bank_sizes, bank_bases, trace, policy)
    for view in both_views(tmp_path_factory, trace, chunk_size):
        assert simulate_bank_sleep(bank_sizes, bank_bases, view, policy) == reference


@settings(max_examples=150, deadline=None)
@given(trace_strategy, chunk_strategy, st.integers(min_value=2, max_value=12))
def test_profile_three_way_identical(tmp_path_factory, case, chunk_size, window):
    _bank_sizes, trace = build_case(case)
    sequence, stats = oracle.profile_stats(trace, block_size=32)
    affinity = oracle.affinity_matrix(sequence, window)
    for view in both_views(tmp_path_factory, trace, chunk_size):
        profile = AccessProfile(view, block_size=32)
        assert profile.block_sequence == sequence
        # Dict order is part of the contract: clustering breaks ties on it,
        # so first-encounter order must survive chunk boundaries.
        assert [
            (block, (s.reads, s.writes, s.first_time, s.last_time))
            for block, s in profile._stats.items()
        ] == list(stats.items())
        assert list(profile.affinity_matrix(window).items()) == list(affinity.items())


def skewed_sequence(num_blocks: int, length: int, seed: int) -> list[int]:
    """``length`` block ids below ``num_blocks``, skewed towards low ids."""
    rng = np.random.default_rng(seed)
    return (rng.random(length) ** 2 * num_blocks).astype(np.int64).tolist()


#: Long block sequences, so one pair recurs at many window offsets; and a
#: permutation of distinct blocks, whose pairs all count 1 at every window,
#: so only first-encounter order separates them (clustering ties).
affinity_sequence_strategy = st.one_of(
    st.builds(
        skewed_sequence,
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=200, max_value=3000),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    st.integers(min_value=200, max_value=300).flatmap(lambda n: st.permutations(range(n))),
)


@settings(max_examples=60, deadline=None)
@given(affinity_sequence_strategy)
@example(list(range(300)))
def test_affinity_matches_oracle_at_flow_windows(sequence):
    """Window 16 (``AffinityClustering``'s) and 32 merge 15 and 31 offsets."""
    blocks = np.asarray(sequence, dtype=np.int64)
    trace = Trace(
        addresses=blocks * 32,
        timestamps=np.arange(len(blocks)),
        kinds=np.zeros(len(blocks)),
        sizes=np.full(len(blocks), 4),
    )
    profile = AccessProfile(trace, block_size=32)
    for window in (2, 16, 32):
        expected = oracle.affinity_matrix(sequence, window)
        assert list(profile.affinity_matrix(window).items()) == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(trace_strategy, chunk_strategy)
def test_streamed_filters_match_scalar_filters(tmp_path_factory, case, chunk_size):
    _bank_sizes, trace = build_case(case)
    path = packed(tmp_path_factory, trace, chunk_size)
    streamed = open_store(path)
    for view in ("reads", "writes", "data_accesses"):
        expected = getattr(trace, view)()
        actual = getattr(streamed, view)().materialize()
        assert len(expected) == len(actual)
        for want, got in zip(expected, actual):
            assert want == got


@settings(max_examples=100, deadline=None)
@given(trace_strategy, chunk_strategy, st.data())
def test_remap_and_rounded_playback_match_oracle(tmp_path_factory, case, chunk_size, data):
    """The flow's layout remap and the rounded-spec address translation."""
    _bank_sizes, trace = build_case(case)
    if not len(trace):
        return
    if data.draw(st.booleans(), label="block-aligned"):
        # First bytes of blocks land on bank edges after the remap.
        trace = Trace.from_events(
            dataclasses.replace(event, address=event.address - event.address % 32)
            for event in trace
        )
    profile = AccessProfile(trace, block_size=32)
    layout = BlockLayout(data.draw(st.permutations(profile.blocks)), block_size=32)
    remapped = layout.remap_trace(trace)
    cuts = sorted(data.draw(st.sets(st.integers(1, layout.num_blocks), max_size=3)))
    bank_blocks = [b - a for a, b in zip([0] + cuts, cuts + [layout.num_blocks]) if b > a]
    spec = PartitionSpec(block_size=32, bank_blocks=tuple(bank_blocks), round_pow2=True)
    memory = build_memory(spec)
    report = oracle.play(memory, oracle.translate_rounded(spec, remapped), True)
    reference = SimulatedPartitionEnergy(
        bank_energy=report.bank_energy,
        decoder_energy=report.decoder_energy,
        leakage_energy=report.leakage_energy,
        accesses=report.accesses,
        bank_access_counts=tuple(memory.bank_access_counts()),
    )
    for view in both_views(tmp_path_factory, trace, chunk_size):
        layout_trace = view.map_chunks(layout.remap_trace)
        events = [event for chunk in layout_trace.chunks() for event in chunk]
        assert events == list(remapped)
        assert simulate_partition(spec, layout_trace, include_leakage=True) == reference


@settings(max_examples=150, deadline=None)
@given(
    trace_strategy,
    st.sampled_from([1, 2, 3, 5, 8]),  # SPM capacity in 32-byte blocks
    st.sampled_from([0.1, 50.0]),  # cache-path energy: no saving / saving
)
def test_spm_allocation_matches_oracle(case, capacity_blocks, cache_path_energy):
    """Top-k by access count, ties to the lower block index."""
    _bank_sizes, trace = build_case(case)
    profile = AccessProfile(trace, block_size=32)
    allocator = SPMAllocator(
        SPMConfig(size=32 * capacity_blocks), cache_path_energy=cache_path_energy
    )
    assert allocator.allocate(profile) == oracle.spm_allocate(allocator, profile)


knapsack_items = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=160),  # size in bytes
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),  # small set: value ties
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(knapsack_items, st.integers(min_value=0, max_value=400))
def test_knapsack_matches_oracle(raw_items, capacity):
    # Names sort in a different order from generation, as real data-set
    # names (``region_0x...``) need not arrive sorted.
    items = [(f"ds{(7 * i) % 11}", size, value) for i, (size, value) in enumerate(raw_items)]
    assert EnergyAwareScheduler._knapsack(items, capacity) == oracle.knapsack(items, capacity)


@settings(max_examples=150, deadline=None)
@given(
    trace_strategy,
    st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    st.sampled_from([8, 32, 128]),
    st.sampled_from([64, 256, 4096]),
)
def test_stats_match_oracle(case, top, block_size, region_size):
    """Stride ranking ties, entropy float order, transition dict order."""
    _bank_sizes, trace = build_case(case)
    strides = oracle.stride_histogram(trace, top)
    entropy = oracle.address_entropy(trace, block_size)
    transitions = oracle.region_transition_matrix(trace, region_size)
    assert stride_histogram(trace, top) == strides
    assert address_entropy(trace, block_size) == entropy
    assert list(region_transition_matrix(trace, region_size).items()) == list(
        transitions.items()
    )


@settings(max_examples=150, deadline=None)
@given(
    trace_strategy,
    chunk_strategy,
    st.integers(min_value=1, max_value=50),  # window_events
    st.sampled_from([64, 256]),  # region_bytes
)
def test_trace_to_application_windows_match_oracle(
    tmp_path_factory, case, chunk_size, window_events, region_bytes
):
    """Windows that straddle chunk boundaries merge into one kernel."""
    _bank_sizes, trace = build_case(case)
    for view in both_views(tmp_path_factory, trace, chunk_size):
        if not len(trace):
            with pytest.raises(ValueError, match="no data accesses"):
                trace_to_application(view, window_events, region_bytes, 3)
            continue
        assert trace_to_application(view, window_events, region_bytes, 3) == (
            oracle.trace_to_application(trace, window_events, region_bytes, 3)
        )
