"""Bus encoder interface.

An encoder transforms each logical word into the physical word driven on the
bus wires; a matching decoder recovers the logical word on the far side.
Encoders are *stateful* (most exploit the previous word) and must be exactly
invertible given the same state evolution — the property test suite drives
random streams through encode→decode and requires identity.

Every encoder has two equal forms: the per-word :meth:`BusEncoder.encode` /
:meth:`BusEncoder.decode` pair, which :meth:`repro.bus.Bus.drive` uses and
which is the oracle, and the whole-stream :meth:`BusEncoder.encode_stream` /
:meth:`BusEncoder.decode_stream` kernels over ``uint64`` arrays, which give
the same words and leave the same state as a loop of the per-word form.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["BusEncoder"]


class BusEncoder:
    """Base class for bus encoders/decoders.

    Parameters
    ----------
    width:
        Bus width in bits, at most 64 (the stream kernels work in ``uint64``);
        words outside ``[0, 2**width)`` are rejected.
    """

    name = "encoder"

    def __init__(self, width: int = 32) -> None:
        if not 0 < width <= 64:
            raise ValueError(f"encoder width must be in [1, 64], got {width}")
        self.width = width
        self.mask = (1 << width) - 1

    def _check(self, word: int) -> int:
        if not 0 <= word <= self.mask:
            raise ValueError(f"word {word:#x} outside {self.width}-bit range")
        return word

    def check_stream(self, words: Sequence[int] | np.ndarray) -> np.ndarray:
        """``words`` as a ``uint64`` array, after one range check of the stream.

        The first word outside ``[0, 2**width)`` raises :meth:`_check`'s
        ``ValueError``, before any conversion could overflow.  A ``uint64``
        array is returned as is.
        """
        if isinstance(words, np.ndarray) and words.dtype == np.uint64:
            bad = np.flatnonzero(words > np.uint64(self.mask))
            if bad.size:
                self._check(int(words[bad[0]]))
            return words
        if isinstance(words, np.ndarray):
            words = words.tolist()
        if len(words) and (min(words) < 0 or max(words) > self.mask):
            self._check(next(word for word in words if not 0 <= word <= self.mask))
        return np.array(words, dtype=np.uint64)

    def encode(self, word: int) -> int:
        """Logical → physical."""
        raise NotImplementedError

    def decode(self, word: int) -> int:
        """Physical → logical (exact inverse under identical state)."""
        raise NotImplementedError

    def encode_stream(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Encode a ``uint64`` stream of in-range words (see :meth:`check_stream`).

        Returns the physical words and the redundant wire's value per word
        (``None`` for encoders without one).  Leaves the encoder-side state
        exactly as a loop of :meth:`encode` would; decode-side state is
        untouched.
        """
        raise NotImplementedError

    def decode_stream(self, physical: np.ndarray, wire: np.ndarray | None) -> np.ndarray:
        """Recover the logical words of an :meth:`encode_stream` output.

        Decodes as the receiver would, starting from the decoder's own state,
        and leaves that state as a loop of :meth:`decode` would.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Return to initial state (bus wires at 0)."""

    @property
    def extra_wires(self) -> int:
        """Redundant wires this encoder adds (bus-invert needs 1, etc.)."""
        return 0
