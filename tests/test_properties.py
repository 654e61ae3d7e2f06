"""Property-based tests (hypothesis) on core invariants.

These cover the properties that unit tests can only sample:

* every codec round-trips any word-aligned payload, bounded in size;
* every bus encoder is exactly invertible over any stream;
* block layouts induce bijective address remappings;
* the DP partitioner is never beaten by any enumerated partition;
* the array DP equals the loop DP oracle (``tests/partition_oracle.py``);
* reuse distances behave like LRU stack distances;
* the cache simulator agrees with a brute-force reference model.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheConfig, ReplacementPolicy
from repro.compress import BDICodec, DifferentialCodec, LZWCodec, ZeroRunCodec
from repro.core import BlockLayout, refine_order
from repro.encoding import (
    BusInvertEncoder,
    FunctionalEncoder,
    GrayEncoder,
    T0Encoder,
    XorDiffEncoder,
    measure_encoder,
)
from repro.partition import OptimalPartitioner, PartitionCostModel, PartitionSpec
from repro.trace import reuse_distances

from . import partition_oracle

# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

word_aligned_payload = st.binary(min_size=0, max_size=256).map(
    lambda raw: raw[: len(raw) - len(raw) % 4]
)


@pytest.mark.parametrize(
    "codec", [DifferentialCodec(), ZeroRunCodec(), LZWCodec()], ids=lambda c: c.name
)
@given(data=word_aligned_payload)
@settings(max_examples=60, deadline=None)
def test_codec_roundtrip(codec, data):
    line = codec.compress(data)
    assert codec.decompress(line) == data
    # Bounded: never more than the escape header over raw size.
    assert line.bit_length <= 8 * len(data) + 1


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

word_streams = st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=60)


@pytest.mark.parametrize(
    "make_encoder",
    [
        lambda: GrayEncoder(16),
        lambda: T0Encoder(16, stride=4),
        lambda: XorDiffEncoder(16),
        lambda: BusInvertEncoder(16),
    ],
    ids=["gray", "t0", "xor_diff", "bus_invert"],
)
@given(words=word_streams)
@settings(max_examples=60, deadline=None)
def test_encoder_invertible_over_any_stream(make_encoder, words):
    report = measure_encoder(make_encoder(), words)
    assert report.decodable


@given(
    words=word_streams,
    partner_seed=st.integers(min_value=0, max_value=2**31),
    xor_previous=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_functional_encoder_invertible_for_any_partner_table(words, partner_seed, xor_previous):
    rng = np.random.default_rng(partner_seed)
    partners = [-1] * 16
    for bit in range(15):
        if rng.random() < 0.5:
            partners[bit] = int(rng.integers(bit + 1, 16))
    encoder = FunctionalEncoder(width=16, xor_previous=xor_previous, partners=partners)
    assert measure_encoder(encoder, words).decodable


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

block_orders = st.lists(
    st.integers(min_value=0, max_value=500), min_size=1, max_size=60, unique=True
)


@given(order=block_orders)
@settings(max_examples=60, deadline=None)
def test_layout_remap_is_bijective_on_blocks(order):
    layout = BlockLayout(order, block_size=32)
    images = {layout.remap_address(block * 32) for block in order}
    assert images == {index * 32 for index in range(len(order))}


@given(order=block_orders, offset=st.integers(min_value=0, max_value=31))
@settings(max_examples=60, deadline=None)
def test_layout_preserves_intra_block_offsets(order, offset):
    layout = BlockLayout(order, block_size=32)
    for block in order:
        assert layout.remap_address(block * 32 + offset) % 32 == offset


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


@given(
    counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=8),
    cut=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_dp_never_beaten_by_random_partition(counts, cut):
    reads = np.array(counts)
    model = PartitionCostModel(reads=reads, writes=np.zeros_like(reads), block_size=32)
    best = OptimalPartitioner(max_banks=4).partition(model)
    # Draw a random contiguous partition and compare.
    n = len(counts)
    k = cut.draw(st.integers(min_value=1, max_value=min(4, n)))
    cuts = sorted(
        cut.draw(
            st.lists(
                st.integers(min_value=1, max_value=n - 1),
                min_size=k - 1,
                max_size=k - 1,
                unique=True,
            )
        )
    )
    edges = [0] + cuts + [n]
    blocks = tuple(edges[i + 1] - edges[i] for i in range(len(edges) - 1))
    spec = PartitionSpec(block_size=32, bank_blocks=blocks)
    assert best.predicted_energy <= model.partition_cost(spec) + 1e-9


# Runs of equal (reads, writes) blocks: zeros and equal runs make cost ties.
count_runs = st.lists(
    st.tuples(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=1000)),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=300)),
        st.integers(min_value=1, max_value=40),
    ),
    min_size=1,
    max_size=10,
)


@given(
    runs=count_runs,
    max_banks=st.integers(min_value=1, max_value=8),
    extra_cells=st.integers(min_value=0, max_value=79),
    num_banks=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    round_pow2=st.booleans(),
    leakage_cycles=st.one_of(st.just(0), st.integers(min_value=1, max_value=10**6)),
)
@example(runs=[(5, 2, 1)], max_banks=8, extra_cells=0, num_banks=None, round_pow2=False, leakage_cycles=0)
@example(runs=[(0, 0, 1)], max_banks=1, extra_cells=0, num_banks=10, round_pow2=True, leakage_cycles=7)
@settings(max_examples=150, deadline=None)
def test_array_dp_equals_loop_oracle(
    runs, max_banks, extra_cells, num_banks, round_pow2, leakage_cycles
):
    """Same spec, bank count and predicted energy bits as the loop DP."""
    reads = [r for r, _w, length in runs for _ in range(length)]
    writes = [w for _r, w, length in runs for _ in range(length)]
    model = PartitionCostModel(
        reads=reads,
        writes=writes,
        block_size=32,
        round_pow2=round_pow2,
        leakage_cycles=leakage_cycles,
    )
    partitioner = OptimalPartitioner(
        max_banks=max_banks, max_dp_cells=min(max_banks + extra_cells, 80)
    )
    result = partitioner.partition(model, num_banks=num_banks)
    expected = partition_oracle.partition(partitioner, model, num_banks=num_banks)
    assert result.spec == expected.spec
    assert result.num_banks == expected.num_banks
    assert float(result.predicted_energy).hex() == float(expected.predicted_energy).hex()


# ---------------------------------------------------------------------------
# reuse distances
# ---------------------------------------------------------------------------


@given(blocks=st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=80))
@settings(max_examples=80, deadline=None)
def test_reuse_distance_matches_reference(blocks):
    """Reference: distance = number of distinct blocks since previous use."""
    distances = reuse_distances(blocks)
    for index, block in enumerate(blocks):
        previous_uses = [i for i in range(index) if blocks[i] == block]
        if not previous_uses:
            assert distances[index] == -1
        else:
            last = previous_uses[-1]
            expected = len(set(blocks[last + 1 : index]))
            assert distances[index] == expected


# ---------------------------------------------------------------------------
# cache vs reference model
# ---------------------------------------------------------------------------


class ReferenceLRUCache:
    """Brute-force fully-explicit LRU cache used as the oracle."""

    def __init__(self, num_sets, ways, line_size):
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.sets = [[] for _ in range(num_sets)]  # list of line indices, MRU last

    def access(self, address):
        line = address // self.line_size
        index = line % self.num_sets
        ways = self.sets[index]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        if len(ways) >= self.ways:
            ways.pop(0)
        ways.append(line)
        return False


@given(
    addresses=st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=200)
)
@settings(max_examples=60, deadline=None)
def test_cache_hits_match_reference_lru(addresses):
    config = CacheConfig(size=256, line_size=32, ways=2, replacement=ReplacementPolicy.LRU)
    cache = Cache(config)
    reference = ReferenceLRUCache(config.num_sets, config.ways, config.line_size)
    for address in addresses:
        assert cache.access(address).hit == reference.access(address)


@given(
    addresses=st.lists(st.integers(min_value=0, max_value=2047), min_size=1, max_size=150),
    writes=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_cache_writeback_conservation(addresses, writes):
    """Every dirty line eventually comes back out exactly once."""
    config = CacheConfig(size=128, line_size=32, ways=1)
    cache = Cache(config)
    dirtied = set()
    written_back = []
    for address in addresses:
        is_write = writes.draw(st.booleans())
        result = cache.access(address, is_write=is_write)
        if is_write:
            dirtied.add(cache.line_address(address))
        if result.writeback:
            written_back.append(result.writeback.line_address)
    written_back.extend(t.line_address for t in cache.flush())
    # Each write-back must be of a line that was dirtied at some point.
    assert set(written_back) <= dirtied


# ---------------------------------------------------------------------------
# clustering refinement
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=2, max_value=15),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_refine_order_is_permutation_and_monotone(n, seed):
    from repro.core import arrangement_cost

    rng = np.random.default_rng(seed)
    order = list(rng.permutation(n))
    affinity = {}
    for _ in range(n):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            key = (min(a, b), max(a, b))
            affinity[key] = affinity.get(key, 0) + int(rng.integers(1, 10))
    refined = refine_order(order, affinity, passes=3)
    assert sorted(refined) == sorted(order)
    assert arrangement_cost(refined, affinity) <= arrangement_cost(order, affinity)


bdi_payload = st.binary(min_size=0, max_size=256).map(
    lambda raw: raw[: len(raw) - len(raw) % 8]
)


@given(data=bdi_payload)
@settings(max_examples=60, deadline=None)
def test_bdi_roundtrip(data):
    codec = BDICodec()
    line = codec.compress(data)
    assert codec.decompress(line) == data
    assert line.bit_length <= 8 * len(data) + 4
