"""Per-word references for the encoders' stream kernels and the Gram fit.

:func:`oracle_measure` is the word-by-word walk ``measure_encoder`` replaced:
every word goes through ``encode``, its transitions are counted with
``hamming``, and it is decoded at once with ``decode``.  :func:`oracle_partners`
is the pairwise loop ``FunctionalEncoder.fit`` replaced: it counts the
transitions of every candidate column ``b_i ⊕ b_j`` directly.  The property
tests require the kernels to give the same reports and partner tables.
Slow by design: use them on test-sized streams only.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.bus import hamming
from repro.encoding import BusEncoder, EncodedStreamReport, stream_transitions

__all__ = ["oracle_measure", "oracle_partners"]


def oracle_measure(
    encoder: BusEncoder,
    words: list[int],
    verify: bool = True,
) -> EncodedStreamReport:
    """Drive ``words`` through ``encoder``; count transitions; check decodability.

    The encoder object models both bus ends: each word is encoded and (when
    ``verify``) immediately decoded, which matches how the physical wires and
    any redundant lines evolve in hardware.
    """
    encoder.reset()
    raw = stream_transitions(words)
    encoded_total = 0
    previous_physical = 0
    decodable = True
    for word in words:
        physical = encoder.encode(word)
        encoded_total += hamming(previous_physical, physical)
        previous_physical = physical
        if verify and encoder.decode(physical) != word:
            decodable = False
    extra = getattr(encoder, "extra_transitions", 0)
    return EncodedStreamReport(
        encoder_name=encoder.name,
        words=len(words),
        raw_transitions=raw,
        encoded_transitions=encoded_total,
        extra_wire_transitions=extra,
        decodable=decodable,
    )


def _bit_matrix(words: Sequence[int], width: int) -> np.ndarray:
    """Words as a (num_words, width) 0/1 matrix, bit 0 in column 0."""
    array = np.asarray(words, dtype=np.uint64)
    columns = [(array >> np.uint64(bit)) & np.uint64(1) for bit in range(width)]
    return np.stack(columns, axis=1).astype(np.uint8)


def oracle_partners(words: Iterable[int], width: int) -> list[int]:
    """The partner table ``FunctionalEncoder.fit`` learns from ``words``.

    For each bit ``i`` (LSB upward), evaluate every candidate partner
    ``j > i``: the transitions of the stream ``b_i ⊕ b_j`` versus the
    transitions of ``b_i`` alone.  Keep the best strictly-improving partner
    (or none).
    """
    word_list = [w for w in words]
    if not word_list:
        return [-1] * width
    bits = _bit_matrix(word_list, width)  # (n, width)
    # Per-column transition counts of every candidate XOR pair.
    transitions = np.abs(np.diff(bits.astype(np.int8), axis=0)).sum(axis=0)
    partners = [-1] * width
    for bit in range(width):
        best_partner, best_count = -1, int(transitions[bit])
        for partner in range(bit + 1, width):
            combined = bits[:, bit] ^ bits[:, partner]
            count = int(np.abs(np.diff(combined.astype(np.int8))).sum())
            if count < best_count:
                best_count, best_partner = count, partner
        partners[bit] = best_partner
    return partners
