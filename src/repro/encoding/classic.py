"""Classic low-power bus encoders: raw, Gray, T0, XOR-difference, bus-invert.

These are the general-purpose (application-blind) encoders the 1B-3 paper
compares its application-specific functional transform against:

* :class:`RawEncoder` — identity (the unencoded baseline);
* :class:`GrayEncoder` — Gray code; one transition per step on sequential
  address streams;
* :class:`T0Encoder` — freeze the bus when the word follows the expected
  stride; an extra wire tells the receiver to regenerate the address locally;
* :class:`XorDiffEncoder` — physical word = logical XOR previous logical; a
  temporal decorrelator that turns repetition into zero wires;
* :class:`BusInvertEncoder` — invert the word when more than half the wires
  would flip; one extra polarity wire.

Each also scores whole ``uint64`` streams with array kernels
(``encode_stream``/``decode_stream``) equal to a loop of its per-word form.
"""

from __future__ import annotations

import numpy as np

from ..bus import hamming, word_flips, xor_deltas
from .base import BusEncoder

__all__ = [
    "RawEncoder",
    "GrayEncoder",
    "T0Encoder",
    "XorDiffEncoder",
    "BusInvertEncoder",
]


class RawEncoder(BusEncoder):
    """Identity encoder: the unencoded baseline."""

    name = "raw"

    def encode(self, word: int) -> int:
        """Return ``word`` unchanged (after range checking)."""
        return self._check(word)

    def decode(self, word: int) -> int:
        """Return ``word`` unchanged (after range checking)."""
        return self._check(word)

    def encode_stream(self, words: np.ndarray) -> tuple[np.ndarray, None]:
        """The stream unchanged."""
        return words, None

    def decode_stream(self, physical: np.ndarray, wire: None) -> np.ndarray:
        """The stream unchanged."""
        return physical


class GrayEncoder(BusEncoder):
    """Binary-reflected Gray code."""

    name = "gray"

    def encode(self, word: int) -> int:
        """Gray-encode ``word``."""
        word = self._check(word)
        return word ^ (word >> 1)

    def decode(self, word: int) -> int:
        """Recover the logical word from its Gray code."""
        word = self._check(word)
        logical = 0
        while word:
            logical ^= word
            word >>= 1
        return logical

    def encode_stream(self, words: np.ndarray) -> tuple[np.ndarray, None]:
        """Gray-encode every word: ``w ^ (w >> 1)``."""
        return words ^ (words >> np.uint64(1)), None

    def decode_stream(self, physical: np.ndarray, wire: None) -> np.ndarray:
        """Prefix-XOR of each word's higher bits, by shift-XOR in ⌈log₂ width⌉ steps."""
        logical = physical.copy()
        shift = 1
        while shift < self.width:
            logical ^= logical >> np.uint64(shift)
            shift *= 2
        return logical


class T0Encoder(BusEncoder):
    """T0 encoding for (near-)sequential streams.

    When the logical word equals ``previous + stride`` the bus is frozen (the
    previous physical word is re-driven — zero transitions) and the INC wire
    is raised; the receiver increments locally.  Otherwise the word goes out
    raw with INC low.  The INC wire's own transitions are charged to the
    encoder via :attr:`extra_transitions`.
    """

    name = "t0"

    def __init__(self, width: int = 32, stride: int = 4) -> None:
        super().__init__(width)
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self.stride = stride
        self._previous_logical: int | None = None
        self._physical = 0
        self._inc_wire = 0
        self._dec_previous = 0
        self.extra_transitions = 0

    @property
    def extra_wires(self) -> int:
        """One extra physical wire: the INC line."""
        return 1

    def encode(self, word: int) -> int:
        """Drive ``word``: freeze the bus on stride hits, else send it raw."""
        word = self._check(word)
        if self._previous_logical is not None and word == (
            (self._previous_logical + self.stride) & self.mask
        ):
            inc = 1
        else:
            inc = 0
            self._physical = word
        if inc != self._inc_wire:
            self.extra_transitions += 1
            self._inc_wire = inc
        self._previous_logical = word
        return self._physical

    def decode(self, word: int) -> int:
        """Reconstruct the logical word at the receiver.

        While the INC wire is high the receiver regenerates the word from its
        own previous word plus the stride; otherwise the bus carries the word.
        """
        if self._inc_wire:
            logical = (self._dec_previous + self.stride) & self.mask
        else:
            logical = self._check(word)
        self._dec_previous = logical
        return logical

    def encode_stream(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Freeze the bus on every stride hit; return the words and the INC wire.

        A word raises INC when it is its predecessor plus the stride; the bus
        then holds the last word sent raw (``np.maximum.accumulate`` over the
        indices without INC).
        """
        if not words.size:
            return words, np.zeros(0, dtype=bool)
        inc = np.empty(words.size, dtype=bool)
        stride, mask = np.uint64(self.stride & self.mask), np.uint64(self.mask)
        inc[1:] = words[1:] == (words[:-1] + stride) & mask
        inc[0] = self._previous_logical is not None and int(words[0]) == (
            (self._previous_logical + self.stride) & self.mask
        )
        held = np.concatenate(([np.uint64(self._physical)], words))
        physical = held[np.maximum.accumulate(np.where(inc, 0, np.arange(1, words.size + 1)))]
        self.extra_transitions += int(inc[0] != bool(self._inc_wire)) + int(
            np.count_nonzero(inc[1:] != inc[:-1])
        )
        self._previous_logical = int(words[-1])
        self._physical = int(physical[-1])
        self._inc_wire = int(inc[-1])
        return physical, inc

    def decode_stream(self, physical: np.ndarray, wire: np.ndarray) -> np.ndarray:
        """Rebuild each word as the last word sent raw plus ``stride`` per INC step since."""
        positions = np.arange(1, physical.size + 1)
        last_raw = np.maximum.accumulate(np.where(wire, 0, positions))
        held = np.concatenate(([np.uint64(self._dec_previous)], physical))
        steps = (positions - last_raw).astype(np.uint64)
        logical = (held[last_raw] + np.uint64(self.stride & self.mask) * steps) & np.uint64(
            self.mask
        )
        if logical.size:
            self._dec_previous = int(logical[-1])
        return logical

    def reset(self) -> None:
        """Clear stride history at both ends, the INC wire, and the transition counter."""
        self._previous_logical = None
        self._physical = 0
        self._inc_wire = 0
        self._dec_previous = 0
        self.extra_transitions = 0


class XorDiffEncoder(BusEncoder):
    """Temporal decorrelator: physical = logical ⊕ previous logical.

    Encoder and decoder keep *independent* previous-word state, so the same
    object can model both ends of the bus (encode/decode interleaved per
    word) or two objects can sit at opposite ends.
    """

    name = "xor_diff"

    def __init__(self, width: int = 32) -> None:
        super().__init__(width)
        self._enc_previous = 0
        self._dec_previous = 0

    def encode(self, word: int) -> int:
        """Emit ``word XOR previous``; update encoder-side history."""
        word = self._check(word)
        physical = word ^ self._enc_previous
        self._enc_previous = word
        return physical

    def decode(self, word: int) -> int:
        """Recover the logical word; update decoder-side history."""
        word = self._check(word)
        logical = word ^ self._dec_previous
        self._dec_previous = logical
        return logical

    def encode_stream(self, words: np.ndarray) -> tuple[np.ndarray, None]:
        """Each word XOR the one before it; update encoder-side history."""
        physical = xor_deltas(words, self._enc_previous)
        if words.size:
            self._enc_previous = int(words[-1])
        return physical, None

    def decode_stream(self, physical: np.ndarray, wire: None) -> np.ndarray:
        """Running XOR of the physical words from the decoder's previous word."""
        logical = np.bitwise_xor.accumulate(physical) ^ np.uint64(self._dec_previous)
        if logical.size:
            self._dec_previous = int(logical[-1])
        return logical

    def reset(self) -> None:
        """Zero the previous-word state at both ends."""
        self._enc_previous = 0
        self._dec_previous = 0


class BusInvertEncoder(BusEncoder):
    """Bus-invert coding (Stan & Burleson).

    If driving the word would flip more than ``width/2`` wires, drive its
    complement and raise the polarity wire.  The polarity wire's transitions
    are charged via :attr:`extra_transitions`.
    """

    name = "bus_invert"

    def __init__(self, width: int = 32) -> None:
        super().__init__(width)
        self._physical = 0
        self._polarity = 0
        self.extra_transitions = 0

    @property
    def extra_wires(self) -> int:
        """One extra physical wire: the polarity line."""
        return 1

    def encode(self, word: int) -> int:
        """Drive ``word`` or its complement, whichever flips fewer wires."""
        word = self._check(word)
        flips = hamming(self._physical, word)
        if flips > self.width // 2:
            physical = word ^ self.mask
            polarity = 1
        else:
            physical = word
            polarity = 0
        if polarity != self._polarity:
            self.extra_transitions += 1
            self._polarity = polarity
        self._physical = physical
        return physical

    def decode(self, word: int) -> int:
        """Undo the inversion indicated by the polarity wire."""
        word = self._check(word)
        return word ^ self.mask if self._polarity else word

    def encode_stream(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Invert where the polarity wire is high; return the words and that wire.

        With ``d`` the bits in which a word differs from the logical word
        before it, the polarity keeps its value when ``2d < width``, toggles
        when ``2d > width`` and drops to 0 when ``2d == width``.  So it is the
        parity of the toggles since the last such reset: one ``cumsum`` and
        one ``np.maximum.accumulate``.
        """
        previous = self._physical ^ (self.mask if self._polarity else 0)
        twice = 2 * word_flips(words, previous, self.width)
        toggles = np.cumsum(twice > self.width) + self._polarity
        at_reset = np.maximum.accumulate(np.where(twice == self.width, toggles, 0))
        polarity = (toggles - at_reset) % 2 == 1
        physical = np.where(polarity, words ^ np.uint64(self.mask), words)
        if words.size:
            self.extra_transitions += int(polarity[0] != bool(self._polarity)) + int(
                np.count_nonzero(polarity[1:] != polarity[:-1])
            )
            self._physical = int(physical[-1])
            self._polarity = int(polarity[-1])
        return physical, polarity

    def decode_stream(self, physical: np.ndarray, wire: np.ndarray) -> np.ndarray:
        """Undo the inversion wherever the polarity wire is high."""
        return np.where(wire, physical ^ np.uint64(self.mask), physical)

    def reset(self) -> None:
        """Clear bus state, the polarity wire, and the transition counter."""
        self._physical = 0
        self._polarity = 0
        self.extra_transitions = 0
