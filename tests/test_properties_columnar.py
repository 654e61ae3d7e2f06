"""Property-based equivalence: per-event scalar reference vs vectorized engine.

The vectorized kernels' contract is *exact* agreement with the per-event
scalar references in ``tests/playback_oracle.py`` — bit-identical energy
totals, identical per-bank access counts, identical sleep accounting — on
any trace, including empty traces and single-bank memories.  Each kernel
here is fed the in-memory ``Trace``; ``test_properties_store.py`` repeats
the comparison on ``open_store`` inputs at drawn chunk sizes.  Hypothesis
searches for counterexamples.  The reuse-distance kernel is checked on
block sequences directly, with the locality metrics that read it.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import PartitionedMemory, SleepPolicy, simulate_bank_sleep
from repro.trace import AccessKind, MemoryAccess, Trace
from repro.trace.profile import AccessProfile, reuse_distances

from . import playback_oracle as oracle

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


@settings(max_examples=200, deadline=None)
@given(trace_strategy)
def test_play_scalar_and_vectorized_agree_exactly(case):
    bank_sizes, trace = build_case(case)
    memory_scalar = PartitionedMemory(bank_sizes)
    memory_vector = PartitionedMemory(bank_sizes)
    report_scalar = oracle.play(memory_scalar, trace, include_leakage=True)
    report_vector = memory_vector.play(trace, include_leakage=True)
    assert report_scalar.total == report_vector.total
    assert report_scalar.bank_energy == report_vector.bank_energy
    assert report_scalar.decoder_energy == report_vector.decoder_energy
    assert report_scalar.leakage_energy == report_vector.leakage_energy
    assert memory_scalar.bank_access_counts() == memory_vector.bank_access_counts()
    assert [(b.reads, b.writes) for b in memory_scalar.banks] == [
        (b.reads, b.writes) for b in memory_vector.banks
    ]


@settings(max_examples=200, deadline=None)
@given(trace_strategy, st.integers(min_value=0, max_value=300))
def test_bank_sleep_scalar_and_columnar_agree_exactly(case, timeout_cycles):
    bank_sizes, trace = build_case(case)
    bank_bases = [i * BANK_BYTES for i in range(len(bank_sizes))]
    policy = SleepPolicy(timeout_cycles=timeout_cycles)
    report_scalar = oracle.simulate_bank_sleep(bank_sizes, bank_bases, trace, policy)
    report_columnar = simulate_bank_sleep(
        bank_sizes, bank_bases, trace, policy
    )
    assert report_scalar == report_columnar
    assert report_scalar.leakage_saving == report_columnar.leakage_saving


@settings(max_examples=150, deadline=None)
@given(trace_strategy)
def test_profile_scalar_and_columnar_agree_exactly(case):
    _bank_sizes, trace = build_case(case)
    sequence, stats = oracle.profile_stats(trace, block_size=32)
    vectorized = AccessProfile(trace, block_size=32)
    assert vectorized.block_sequence == sequence
    # Dict order is part of the contract: clustering breaks ties on it.
    assert [
        (block, (s.reads, s.writes, s.first_time, s.last_time))
        for block, s in vectorized._stats.items()
    ] == list(stats.items())
    if len(trace) >= 2:
        window = 8
        assert list(vectorized.affinity_matrix(window).items()) == list(
            oracle.affinity_matrix(sequence, window).items()
        )


def _runs(pairs):
    """Expand (block, run length) pairs into one block sequence."""
    return [block for block, length in pairs for _ in range(length)]


def _scattered(shape):
    """``length`` draws over ``num_blocks`` blocks, seeded."""
    num_blocks, length, seed = shape
    rng = random.Random(seed)
    return [rng.randrange(num_blocks) for _ in range(length)]


# Block sequences: few blocks in long runs (depth-0 reuses), many distinct
# blocks (deep scans), all first touches, and the empty and one-access edges.
block_sequences = st.one_of(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 60)), max_size=40
    ).map(_runs),
    st.tuples(
        st.integers(1, 3000), st.integers(0, 4000), st.integers(0, 2**32)
    ).map(_scattered),
    st.integers(0, 3000).map(lambda n: list(range(n))),
    st.lists(st.integers(0, 1 << 20), max_size=1),
)


@settings(max_examples=150, deadline=None)
@given(block_sequences, st.integers(0, 80))
def test_reuse_distances_and_locality_match_the_walk(sequence, max_distance):
    expected = oracle.reuse_distances(sequence)
    assert reuse_distances(sequence) == expected
    addresses = np.asarray(sequence, dtype=np.int64) * 32
    profile = AccessProfile(
        Trace.from_arrays(addresses, np.arange(len(sequence))), block_size=32
    )
    assert profile.block_sequence == sequence
    reused = [d for d in expected if d >= 0]
    locality = float(np.mean([1.0 / (1.0 + d) for d in reused])) if reused else 0.0
    assert profile.temporal_locality().hex() == locality.hex()
    for clip in (64, max_distance):
        assert profile.reuse_histogram(clip) == Counter(
            min(d, clip) if d >= 0 else -1 for d in expected
        )
