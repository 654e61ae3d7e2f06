"""Parallel bus model with transition counting and pluggable encoders.

The bus is the shared substrate of the compression (1B-2) and instruction
encoding (1B-3) experiments: both papers reduce energy by reducing either the
*number of words* driven onto the bus or the *number of bit transitions* per
word.  The model here tracks both.

A bus has a width in bits, a wire-energy model, and optionally an encoder
(:mod:`repro.encoding`) that transforms each word before it hits the wires.
Transition counting is done on the *encoded* (physical) values; statistics on
logical words are kept separately so encoder efficacy is directly observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from ..memory.energy import BusEnergyModel

__all__ = ["Bus", "BusStats", "hamming", "count_transitions", "word_flips", "xor_deltas"]


#: Set-bit count of every 16-bit value.  Built by doubling: each step appends
#: a copy of the table with one more bit set (``translate`` adds 1 to a count).
_POPCOUNT16 = b"\x00"
for _ in range(16):
    _POPCOUNT16 += _POPCOUNT16.translate(bytes(range(1, 256)) + b"\x00")
_POPCOUNT16_TABLE = np.frombuffer(_POPCOUNT16, dtype=np.uint8)


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two non-negative integers (any width)."""
    diff = a ^ b
    if diff < 0:
        raise ValueError(f"hamming distance needs non-negative integers, got {a} and {b}")
    count = 0
    while diff:
        count += _POPCOUNT16[diff & 0xFFFF]
        diff >>= 16
    return count


def count_transitions(words: Iterable[int], initial: int = 0) -> int:
    """Total bit transitions of a word sequence on a bus initially at ``initial``."""
    total = 0
    previous = initial
    for word in words:
        total += hamming(previous, word)
        previous = word
    return total


def xor_deltas(words: np.ndarray, first: int = 0) -> np.ndarray:
    """Each word of a ``uint64`` stream XOR the word before it (``first`` before the first)."""
    diff = words.copy()
    diff[1:] ^= words[:-1]
    if diff.size:
        diff[0] ^= np.uint64(first)
    return diff


def word_flips(words: np.ndarray, first: int = 0, width: int = 64) -> np.ndarray:
    """Bit transitions per word of a ``uint64`` stream on wires that start at ``first``.

    One 16-bit table popcount per XOR of consecutive words; only the low
    ``width`` bits of every word are counted.
    """
    diff = xor_deltas(words, first)
    flips = np.zeros(diff.size, dtype=np.int64)
    for shift in range(0, width, 16):
        flips += _POPCOUNT16_TABLE[(diff >> np.uint64(shift)) & np.uint64(0xFFFF)]
    return flips


class _EncoderProtocol(Protocol):  # pragma: no cover - typing aid
    def encode(self, word: int) -> int: ...
    def check_stream(self, words: np.ndarray) -> np.ndarray: ...
    def encode_stream(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]: ...
    def reset(self) -> None: ...


@dataclass
class BusStats:
    """Aggregate statistics of a bus."""

    words: int = 0
    transitions: int = 0
    raw_transitions: int = 0

    @property
    def transitions_per_word(self) -> float:
        """Mean physical transitions per word (0 if nothing driven)."""
        return self.transitions / self.words if self.words else 0.0

    @property
    def reduction(self) -> float:
        """Fractional transition reduction vs the unencoded stream."""
        if self.raw_transitions == 0:
            return 0.0
        return 1.0 - self.transitions / self.raw_transitions


class Bus:
    """A ``width``-bit parallel bus.

    Parameters
    ----------
    width:
        Number of wires.
    energy_model:
        pJ-per-transition model (on-chip vs off-chip presets available on
        :class:`~repro.memory.energy.BusEnergyModel`).
    encoder:
        Optional encoder applied to every word before it is driven.  Must
        expose ``encode(word) -> int``, ``check_stream(words)``,
        ``encode_stream(words)`` and ``reset()``, as
        :class:`~repro.encoding.BusEncoder` does.
    name:
        Label for reports.
    """

    def __init__(
        self,
        width: int = 32,
        energy_model: BusEnergyModel | None = None,
        encoder: _EncoderProtocol | None = None,
        name: str = "bus",
    ) -> None:
        if not 0 < width <= 64:
            raise ValueError(f"bus width must be in [1, 64], got {width}")
        self.width = width
        self.mask = (1 << width) - 1
        self.energy_model = energy_model if energy_model is not None else BusEnergyModel.on_chip()
        self.encoder = encoder
        self.name = name
        self.stats = BusStats()
        self._wires = 0
        self._raw_previous = 0

    def drive(self, word: int) -> float:
        """Drive one logical word onto the bus; return the energy spent (pJ)."""
        if word < 0:
            raise ValueError(f"bus words must be non-negative, got {word}")
        logical = word & self.mask
        if self.encoder is None:
            # Unencoded, the wires carry the logical stream itself.
            physical = logical
            flips = raw_flips = hamming(self._wires, logical)
        else:
            physical = self.encoder.encode(logical) & self.mask
            flips = hamming(self._wires, physical)
            raw_flips = hamming(self._raw_previous, logical)
        self.stats.words += 1
        self.stats.transitions += flips
        self.stats.raw_transitions += raw_flips
        self._wires = physical
        self._raw_previous = logical
        return self.energy_model.energy(flips)

    def drive_all(self, words: Iterable[int]) -> float:
        """Drive a word sequence; return total energy (pJ).

        Leaves the statistics, the wires and the encoder as a :meth:`drive`
        loop over ``words`` would, and returns the same energy to the bit:
        the per-word energies summed in drive order.  The encoder, if any,
        encodes the whole stream with its ``encode_stream`` kernel, which
        leaves its state where an ``encode`` loop would; the transition
        count is one array pass.
        """
        logical = self._logical_words(words)
        if not logical.size:
            return 0.0
        if self.encoder is None:
            physical = logical
        else:
            physical, _wire = self.encoder.encode_stream(self.encoder.check_stream(logical))
            physical = physical & np.uint64(self.mask)
        flips = word_flips(physical, self._wires, self.width)
        raw_flips = (
            flips if self.encoder is None else word_flips(logical, self._raw_previous, self.width)
        )
        self.stats.words += logical.size
        self.stats.transitions += int(flips.sum())
        self.stats.raw_transitions += int(raw_flips.sum())
        self._wires = int(physical[-1])
        self._raw_previous = int(logical[-1])
        # A running sum, as ``energy += drive(word)`` adds: not ``sum()``,
        # which compensates float sums on Python 3.12+.
        return float(np.cumsum(self.energy_model.energy(flips))[-1])

    def _logical_words(self, words: Iterable[int]) -> np.ndarray:
        """``words`` masked to the bus width, as ``uint64``."""
        if isinstance(words, np.ndarray) and words.dtype.kind in "ui":
            negative = words[words < 0]
            logical = words.astype(np.uint64) & np.uint64(self.mask)
        else:
            # Python ints of any size (numpy infers float64 for a mix of words
            # past 2**63 and others): mask them one by one, as drive does.
            values = words.tolist() if isinstance(words, np.ndarray) else list(words)
            negative = [word for word in values if word < 0]
            logical = np.array([word & self.mask for word in values], dtype=np.uint64)
        if len(negative):
            raise ValueError(f"bus words must be non-negative, got {negative[0]}")
        return logical

    def drive_bytes(self, payload: bytes) -> float:
        """Drive a byte string as consecutive little-endian bus words.

        The payload is padded with zero bytes up to a whole number of words —
        matching how a narrow burst occupies the full bus width.
        """
        word_bytes = self.width // 8
        if word_bytes == 0:
            raise ValueError(f"drive_bytes needs a bus at least 8 bits wide, got {self.width}")
        energy = 0.0
        for start in range(0, len(payload), word_bytes):
            chunk = payload[start : start + word_bytes]
            energy += self.drive(int.from_bytes(chunk, "little"))
        return energy

    @property
    def energy(self) -> float:
        """Total energy (pJ) spent on physical transitions so far."""
        return self.energy_model.energy(self.stats.transitions)

    def reset(self) -> None:
        """Clear statistics, wire state, and encoder state."""
        self.stats = BusStats()
        self._wires = 0
        self._raw_previous = 0
        if self.encoder is not None:
            self.encoder.reset()
