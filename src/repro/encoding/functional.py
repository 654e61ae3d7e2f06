"""Application-specific functional bus transform (paper 1B-3).

Petrov & Orailoglu reduce instruction-memory bus power with *functional*
transformations learned from the application's fetch stream: instead of a
dictionary (the main shortcoming of prior approaches), each bus line is
re-encoded through a **single XOR gate** combining it with one other line, so
the transform adds no lookup structure and no delay to the fetch stage, and a
reprogrammable selection lets the hardware switch transforms per application.

The transform family implemented here is exactly that: an invertible linear
map over GF(2) where output bit *i* is either ``b_i`` or ``b_i ⊕ b_{p(i)}``
with partner ``p(i) > i``.  The strictly-increasing partner constraint makes
the matrix unit upper-triangular, hence trivially invertible with the same
single-gate depth on the decode side.

Training (``fit``): for each bit position, pick the partner whose XOR
minimizes the *transition count* of that output bit over the profiled word
stream — bits of instruction words are heavily correlated (opcode fields,
register fields, sign bits), and XORing correlated bits cancels their common
toggles.  One Gram matrix of the per-bit toggles scores every pair at once.
Training is a pure profiling pass; the learned transform is then a static
piece of (reprogrammable) hardware.

The optional ``xor_previous`` stage composes the learned spatial transform
with a temporal decorrelator (physical = transformed ⊕ previous
transformed), matching the paper's observation that consecutive fetches are
themselves highly correlated.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..bus import xor_deltas
from .base import BusEncoder

__all__ = ["FunctionalEncoder"]

#: Consecutive-word steps per block of :meth:`FunctionalEncoder.fit`'s
#: toggle sums: the toggle matrix is at most this many rows, so training
#: memory is bounded whatever the stream length.
_FIT_BLOCK_STEPS = 16384


def _forward_images(partners: Sequence[int]) -> list[int]:
    """Transform of each unit vector: bit ``i`` feeds output ``i`` and every ``j`` paired to it."""
    images = [1 << bit for bit in range(len(partners))]
    for bit, partner in enumerate(partners):
        if partner != -1:
            images[partner] |= 1 << bit
    return images


def _inverse_images(partners: Sequence[int]) -> list[int]:
    """Inverse transform of each unit vector.

    Solving from the top bit down, ``x_j = y_j ⊕ x_{p(j)}``, so logical bit
    ``j`` is the XOR of the physical bits along its partner chain
    ``j, p(j), p(p(j)), ...``.
    """
    images = [0] * len(partners)
    for bit in range(len(partners)):
        link = bit
        while link != -1:
            images[link] |= 1 << bit
            link = partners[link]
    return images


def _byte_tables(images: Sequence[int]) -> list[list[int]]:
    """Per-byte lookup tables of the GF(2)-linear map with these unit-vector images.

    Table ``k`` maps byte ``k`` of a word to the XOR of the images of its set
    bits, so by linearity the map of a word is the XOR of one lookup per byte.
    """
    tables = []
    for start in range(0, len(images), 8):
        byte_images = images[start : start + 8]
        table = [0] * (1 << len(byte_images))
        for value in range(1, len(table)):
            low = value & -value
            table[value] = table[value ^ low] ^ byte_images[low.bit_length() - 1]
        tables.append(table)
    return tables


def _apply(tables: Sequence[Sequence[int]], word: int) -> int:
    """The map of ``word``: one table lookup per byte, XORed together."""
    out = 0
    for table in tables:
        out ^= table[word & 0xFF]
        word >>= 8
    return out


def _apply_stream(tables: Sequence[Sequence[int]], words: np.ndarray) -> np.ndarray:
    """:func:`_apply` over a ``uint64`` stream: one ``np.take`` per byte table."""
    out = np.zeros(words.size, dtype=np.uint64)
    for byte, table in enumerate(tables):
        index = (words >> np.uint64(8 * byte)) & np.uint64(0xFF)
        out ^= np.take(np.array(table, dtype=np.uint64), index.astype(np.intp))
    return out


class FunctionalEncoder(BusEncoder):
    """Learned single-XOR-gate-per-line transform.

    Parameters
    ----------
    width:
        Bus width.
    xor_previous:
        Compose with a temporal XOR-decorrelation stage.
    partners:
        Pre-trained partner table (``partners[i] > i`` or ``-1`` for "pass
        through").  Normally produced by :meth:`fit`.  Fixed at construction:
        the transform's lookup tables are built from it once.
    """

    name = "functional"

    def __init__(
        self,
        width: int = 32,
        xor_previous: bool = True,
        partners: Sequence[int] | None = None,
    ) -> None:
        super().__init__(width)
        self.xor_previous = xor_previous
        if partners is None:
            partners = [-1] * width
        self.partners = list(partners)
        self._validate_partners()
        self._forward_tables = _byte_tables(_forward_images(self.partners))
        self._inverse_tables = _byte_tables(_inverse_images(self.partners))
        self._enc_previous = 0
        self._dec_previous = 0

    def _validate_partners(self) -> None:
        if len(self.partners) != self.width:
            raise ValueError(
                f"partner table has {len(self.partners)} entries for a "
                f"{self.width}-bit bus"
            )
        for bit, partner in enumerate(self.partners):
            if partner == -1:
                continue
            if not bit < partner < self.width:
                raise ValueError(
                    f"partner of bit {bit} must be in ({bit}, {self.width}), got {partner}"
                )

    # -- training -----------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        words: Iterable[int],
        width: int = 32,
        xor_previous: bool = True,
    ) -> "FunctionalEncoder":
        """Learn the partner table from a profiled word stream.

        For each bit ``i`` (LSB upward), evaluate every candidate partner
        ``j > i``: the transitions of the stream ``b_i ⊕ b_j`` versus the
        transitions of ``b_i`` alone.  Keep the best strictly-improving
        partner, the smallest on a tie (or none).

        With ``D`` the ``(n−1) × width`` matrix of per-bit toggles between
        consecutive words, ``b_i ⊕ b_j`` toggles ``|D_i| + |D_j| − 2·D_iᵀD_j``
        times, so the one Gram matrix ``DᵀD`` scores every pair.  ``D`` is
        built :data:`_FIT_BLOCK_STEPS` rows at a time, from blocks of words
        that overlap by one word so that no step is lost, and ``DᵀD`` and
        the column sums are summed over the blocks.  They are ``float64``
        sums of 0/1 products, exact below 2⁵³ words — a one-off profiling
        cost, exactly like the paper's software profiling step.
        """
        array = np.asarray(
            words if isinstance(words, np.ndarray) else list(words), dtype=np.uint64
        )
        shifts = np.arange(width, dtype=np.uint64)
        alone = np.zeros(width)
        gram = np.zeros((width, width))
        for start in range(0, array.size - 1, _FIT_BLOCK_STEPS):
            block = array[start : start + _FIT_BLOCK_STEPS + 1]
            steps = block[1:] ^ block[:-1]
            toggles = ((steps[:, None] >> shifts) & np.uint64(1)).astype(np.float64)
            alone += toggles.sum(axis=0)
            gram += toggles.T @ toggles
        paired = alone[:, None] + alone[None, :] - 2.0 * gram
        paired[np.tril_indices(width)] = np.inf  # a partner sits above its bit
        best = paired.argmin(axis=1)
        partners = np.where(paired[np.arange(width), best] < alone, best, -1)
        return cls(width=width, xor_previous=xor_previous, partners=partners.tolist())

    # -- the transform ---------------------------------------------------------

    def _transform(self, word: int) -> int:
        return _apply(self._forward_tables, word)

    def _inverse_transform(self, word: int) -> int:
        return _apply(self._inverse_tables, word)

    # -- encoder protocol --------------------------------------------------------

    def encode(self, word: int) -> int:
        """Apply the XOR transform (plus temporal XOR when enabled)."""
        word = self._check(word)
        physical = self._transform(word)
        if self.xor_previous:
            physical, self._enc_previous = physical ^ self._enc_previous, physical
        return physical

    def decode(self, word: int) -> int:
        """Invert the transform; triangularity guarantees exact recovery."""
        word = self._check(word)
        if self.xor_previous:
            word ^= self._dec_previous
            self._dec_previous = word
        return self._inverse_transform(word)

    def encode_stream(self, words: np.ndarray) -> tuple[np.ndarray, None]:
        """The transform by byte-table lookups, then the temporal XOR stage when enabled."""
        physical = _apply_stream(self._forward_tables, words)
        if self.xor_previous and physical.size:
            transformed = physical
            physical = xor_deltas(transformed, self._enc_previous)
            self._enc_previous = int(transformed[-1])
        return physical, None

    def decode_stream(self, physical: np.ndarray, wire: None) -> np.ndarray:
        """Undo the temporal stage by a running XOR, then invert the transform."""
        if self.xor_previous and physical.size:
            physical = np.bitwise_xor.accumulate(physical) ^ np.uint64(self._dec_previous)
            self._dec_previous = int(physical[-1])
        return _apply_stream(self._inverse_tables, physical)

    def reset(self) -> None:
        """Zero the temporal-XOR state at both ends."""
        self._enc_previous = 0
        self._dec_previous = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        active = sum(1 for partner in self.partners if partner != -1)
        return f"FunctionalEncoder(width={self.width}, gates={active}, xor_previous={self.xor_previous})"
