"""Transition metrics for encoded word streams."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..bus import count_transitions, word_flips
from .base import BusEncoder

__all__ = ["EncodedStreamReport", "measure_encoder", "stream_transitions"]


def stream_transitions(words: Iterable[int], initial: int = 0) -> int:
    """Total bit transitions of a word sequence on a bus initially at ``initial``."""
    return count_transitions(words, initial)


@dataclass(frozen=True)
class EncodedStreamReport:
    """Transition accounting of one encoder over one stream."""

    encoder_name: str
    words: int
    raw_transitions: int
    encoded_transitions: int
    extra_wire_transitions: int
    decodable: bool

    @property
    def total_transitions(self) -> int:
        """Data-wire plus redundant-wire transitions."""
        return self.encoded_transitions + self.extra_wire_transitions

    @property
    def reduction(self) -> float:
        """Fractional transition reduction vs the raw stream (can be negative)."""
        if self.raw_transitions == 0:
            return 0.0
        return 1.0 - self.total_transitions / self.raw_transitions


def measure_encoder(
    encoder: BusEncoder,
    words: Sequence[int] | np.ndarray,
    verify: bool = True,
) -> EncodedStreamReport:
    """Drive ``words`` through ``encoder``; count transitions; check decodability.

    The encoder object models both bus ends: the stream is encoded from reset
    and (when ``verify``) decoded from the physical words and the redundant
    wire, as the receiver sees them.  The words are range-checked once, by
    :meth:`~repro.encoding.BusEncoder.check_stream`, and the first one
    outside the width raises.
    """
    encoder.reset()
    logical = encoder.check_stream(words)
    physical, wire = encoder.encode_stream(logical)
    decodable = not verify or bool(
        np.array_equal(encoder.decode_stream(physical, wire), logical)
    )
    return EncodedStreamReport(
        encoder_name=encoder.name,
        words=int(logical.size),
        raw_transitions=int(word_flips(logical, 0, encoder.width).sum()),
        encoded_transitions=int(word_flips(physical, 0, encoder.width).sum()),
        extra_wire_transitions=getattr(encoder, "extra_transitions", 0),
        decodable=decodable,
    )
