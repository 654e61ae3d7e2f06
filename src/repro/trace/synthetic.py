"""Synthetic workload generators.

The papers reproduced here were evaluated on embedded benchmark suites
(Ptolemy, MediaBench, DSP kernels).  Where the instruction-set simulator's
kernel library is not a good fit — e.g. when an experiment needs a *knob* for
locality, sharing, or value entropy — these generators produce address traces
with controlled structural properties:

* :class:`StridedSweepGenerator` — array sweeps, the backbone of DSP loops;
* :class:`HotColdGenerator` — a small hot scalar region plus a cold heap;
* :class:`LoopNestGenerator` — nested loops over several arrays, modelling
  multimedia kernels (the 1B-1 workload class);
* :class:`MarkovRegionGenerator` — phase-structured programs where control
  hops between memory regions with a Markov chain (tunable interleaving, the
  property address clustering exploits);
* :class:`ValueTraceGenerator` — write traces carrying data payloads with a
  tunable entropy/smoothness level (the 1B-2 compression workload class).

All generators are deterministic given their ``seed``, and each checks its
parameter values when constructed: a ``ValueError`` names the generator,
the field and the value, before any event is generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .trace import KIND_WRITE, Trace

__all__ = [
    "StridedSweepGenerator",
    "HotColdGenerator",
    "ScatteredHotGenerator",
    "LoopNestGenerator",
    "MarkovRegionGenerator",
    "ValueTraceGenerator",
]


def _check(generator, fields, rule: str, accept) -> None:
    """Raise ``ValueError`` for the first of ``fields`` whose value fails ``accept``."""
    for name in fields:
        value = getattr(generator, name)
        if not accept(value):
            raise ValueError(
                f"{type(generator).__name__}: {name} must be {rule}, got {value!r}"
            )


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_ints(generator, minimum: int, *fields: str) -> None:
    """Each of ``fields`` is an integer of at least ``minimum``."""
    _check(
        generator,
        fields,
        f"an integer >= {minimum}",
        lambda value: _is_int(value) and value >= minimum,
    )


def _check_fractions(generator, *fields: str) -> None:
    """Each of ``fields`` is a number in [0, 1]."""
    _check(
        generator, fields, "a number in [0, 1]", lambda value: _is_real(value) and 0 <= value <= 1
    )


@dataclass
class StridedSweepGenerator:
    """Repeated strided sweeps over one array.

    Parameters
    ----------
    base:
        Base byte address of the array.
    length:
        Number of elements.
    stride:
        Element-to-element distance in bytes.
    sweeps:
        Number of complete passes over the array.
    write_fraction:
        Probability that an access is a write.
    seed:
        RNG seed for the read/write coin flips.
    """

    base: int = 0x1000
    length: int = 256
    stride: int = 4
    sweeps: int = 4
    write_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_ints(self, 0, "base", "seed")
        _check_ints(self, 1, "length", "stride", "sweeps")
        _check_fractions(self, "write_fraction")

    def generate(self) -> Trace:
        """Produce the trace."""
        rng = np.random.default_rng(self.seed)
        accesses = self.sweeps * self.length
        sweep = self.base + np.arange(self.length) * self.stride
        return Trace.from_arrays(
            np.tile(sweep, self.sweeps),
            np.arange(accesses),
            rng.random(accesses) < self.write_fraction,
            name=f"sweep(l={self.length},s={self.stride})",
        )


@dataclass
class HotColdGenerator:
    """A hot scalar region absorbing most accesses, plus a cold sprawl.

    This is the canonical motivating pattern for memory partitioning: a small
    hot bank can be made tiny (cheap per access) while the cold data sits in a
    large bank that is rarely touched.

    Parameters
    ----------
    hot_base, hot_size:
        Byte range of the hot region.
    cold_base, cold_size:
        Byte range of the cold region.
    hot_fraction:
        Probability that an access hits the hot region.
    accesses:
        Total number of accesses to generate.
    """

    hot_base: int = 0x0
    hot_size: int = 512
    cold_base: int = 0x8000
    cold_size: int = 32 * 1024
    hot_fraction: float = 0.9
    accesses: int = 20000
    write_fraction: float = 0.3
    seed: int = 1

    def __post_init__(self) -> None:
        _check_ints(self, 0, "hot_base", "cold_base", "seed")
        _check_ints(self, 4, "hot_size", "cold_size")  # at least one word
        _check_ints(self, 1, "accesses")
        _check_fractions(self, "hot_fraction", "write_fraction")

    def generate(self) -> Trace:
        """Produce the trace."""
        rng = np.random.default_rng(self.seed)
        addresses, writes = [], []
        for _ in range(self.accesses):
            if rng.random() < self.hot_fraction:
                addresses.append(self.hot_base + int(rng.integers(0, self.hot_size // 4)) * 4)
            else:
                addresses.append(self.cold_base + int(rng.integers(0, self.cold_size // 4)) * 4)
            writes.append(rng.random() < self.write_fraction)
        return Trace.from_arrays(addresses, np.arange(self.accesses), writes, name="hot_cold")


@dataclass
class LoopNestGenerator:
    """Nested loops touching several arrays per iteration.

    Models multimedia kernels like ``for i: c[i] = f(a[i], b[i], coeff[i % K])``
    — the workload class of the address-clustering paper.  Each iteration
    touches one element of every array; arrays are placed far apart in the
    address space (as a naive linker would), which *destroys* spatial locality
    at the page/bank level and is exactly what address clustering repairs.

    Parameters
    ----------
    array_sizes:
        Element count of each array.
    array_gap:
        Byte distance between consecutive array bases.
    iterations:
        Loop trip count (index wraps around shorter arrays).
    """

    array_sizes: tuple = (1024, 1024, 64, 1024)
    array_gap: int = 64 * 1024
    iterations: int = 4096
    element_size: int = 4
    write_last: bool = True
    seed: int = 2

    def __post_init__(self) -> None:
        _check(
            self,
            ("array_sizes",),
            "a non-empty tuple of positive integers",
            lambda sizes: isinstance(sizes, tuple)
            and len(sizes) > 0
            and all(_is_int(size) and size > 0 for size in sizes),
        )
        _check_ints(self, 0, "array_gap", "seed")
        _check_ints(self, 1, "iterations", "element_size")
        _check(self, ("write_last",), "a bool", lambda value: isinstance(value, bool))

    def bases(self) -> list[int]:
        """Base byte address of each array."""
        return [index * self.array_gap for index in range(len(self.array_sizes))]

    def generate(self) -> Trace:
        """Produce the trace."""
        iterations = np.arange(self.iterations)
        # One row per iteration, one column per array: row-major is trace order.
        addresses = np.stack(
            [
                base + (iterations % size) * self.element_size
                for base, size in zip(self.bases(), self.array_sizes)
            ],
            axis=1,
        )
        kinds = np.zeros(addresses.shape, dtype=np.uint8)
        if self.write_last:
            kinds[:, -1] = KIND_WRITE
        return Trace.from_arrays(
            addresses.ravel(),
            np.arange(addresses.size),
            kinds.ravel(),
            name=f"loop_nest(arrays={len(self.array_sizes)})",
        )


@dataclass
class MarkovRegionGenerator:
    """Phase-structured trace hopping between memory regions.

    A Markov chain over ``regions`` selects which region the program works in;
    inside a region, accesses walk quasi-sequentially.  ``stickiness`` is the
    self-transition probability: high values give long phases (good natural
    locality), low values give heavy interleaving (the hard case where
    clustering gains the most).
    """

    regions: int = 8
    region_size: int = 4096
    region_gap: int = 32 * 1024
    accesses: int = 30000
    stickiness: float = 0.95
    write_fraction: float = 0.25
    seed: int = 3

    def __post_init__(self) -> None:
        _check_ints(self, 0, "region_gap", "seed")
        _check_ints(self, 1, "regions", "region_size", "accesses")
        _check_fractions(self, "stickiness", "write_fraction")

    def generate(self) -> Trace:
        """Produce the trace."""
        rng = np.random.default_rng(self.seed)
        addresses, writes = [], []
        current = 0
        cursor = [0] * self.regions
        for _ in range(self.accesses):
            if rng.random() > self.stickiness:
                current = int(rng.integers(0, self.regions))
            offset = cursor[current]
            cursor[current] = (offset + 4) % self.region_size
            addresses.append(current * self.region_gap + offset)
            writes.append(rng.random() < self.write_fraction)
        return Trace.from_arrays(
            addresses,
            np.arange(self.accesses),
            writes,
            name=f"markov(r={self.regions},p={self.stickiness})",
        )


@dataclass
class ScatteredHotGenerator:
    """Hot blocks scattered uniformly among cold blocks.

    This is the workload class where address clustering earns its keep: the
    hot working set is *fragmented* (hot struct fields, globals, table
    entries), so no contiguous k-bank partition can isolate it — but a
    clustered layout gathers the fragments into one small bank.

    Parameters
    ----------
    num_blocks:
        Total number of distinct blocks in the footprint.
    num_hot:
        How many of them are hot.
    hot_weight:
        Access-count multiplier of a hot block relative to a cold one.
    accesses:
        Total number of accesses to generate.
    block_size:
        Footprint granularity; accesses land on random words inside a block.
    """

    num_blocks: int = 400
    num_hot: int = 40
    hot_weight: float = 20.0
    accesses: int = 30000
    block_size: int = 32
    write_fraction: float = 0.3
    seed: int = 5

    def __post_init__(self) -> None:
        _check_ints(self, 0, "seed")
        _check_ints(self, 1, "num_blocks", "num_hot", "accesses", "block_size")
        _check(
            self,
            ("num_hot",),
            f"at most num_blocks ({self.num_blocks})",
            lambda value: value <= self.num_blocks,
        )
        _check(
            self, ("hot_weight",), "a positive number", lambda value: _is_real(value) and value > 0
        )
        _check_fractions(self, "write_fraction")

    def generate(self) -> Trace:
        """Produce the trace."""
        rng = np.random.default_rng(self.seed)
        hot_blocks = rng.choice(self.num_blocks, size=self.num_hot, replace=False)
        weights = np.ones(self.num_blocks)
        weights[hot_blocks] = self.hot_weight
        probabilities = weights / weights.sum()
        blocks = rng.choice(self.num_blocks, size=self.accesses, p=probabilities)
        words_per_block = max(1, self.block_size // 4)
        offsets = rng.integers(0, words_per_block, size=self.accesses) * 4
        writes = rng.random(self.accesses) < self.write_fraction
        return Trace.from_arrays(
            blocks * self.block_size + offsets,
            np.arange(self.accesses),
            writes,
            name=f"scattered(h={self.num_hot}/{self.num_blocks})",
        )


@dataclass
class ValueTraceGenerator:
    """Write trace with data payloads of tunable smoothness.

    The differential compressor of the 1B-2 paper wins when neighbouring words
    in a cache line have small differences (image rows, audio samples,
    pointers into the same region).  ``smoothness`` interpolates between
    white-noise words (0.0: incompressible) and a slow random walk (1.0:
    highly compressible deltas).

    Generates ``lines`` cache lines' worth of 32-bit word writes at
    consecutive addresses.
    """

    lines: int = 512
    line_bytes: int = 32
    base: int = 0x4000
    smoothness: float = 0.8
    seed: int = 4

    def __post_init__(self) -> None:
        _check_ints(self, 0, "base", "seed")
        _check_ints(self, 1, "lines")
        _check_ints(self, 4, "line_bytes")  # at least one word per line
        _check_fractions(self, "smoothness")

    def generate(self) -> Trace:
        """Produce the trace."""
        rng = np.random.default_rng(self.seed)
        words = self.lines * (self.line_bytes // 4)
        values = []
        value = int(rng.integers(0, 2**31))
        # Walk step size shrinks *exponentially* as smoothness grows: at 1.0
        # deltas fit a byte, at 0.5 a halfword-ish, near 0 they are word-sized.
        max_step = max(1, int(2 ** (6 + (1.0 - self.smoothness) * 25)))
        for _ in range(words):
            if self.smoothness == 0.0:
                value = int(rng.integers(0, 2**32))
            else:
                value = (value + int(rng.integers(-max_step, max_step + 1))) % 2**32
            values.append(value)
        return Trace(
            self.base + 4 * np.arange(words),
            np.arange(words),
            np.full(words, KIND_WRITE),
            np.full(words, 4),
            values=values,
            value_mask=np.ones(words, dtype=bool),
            name=f"values(smooth={self.smoothness})",
        )
