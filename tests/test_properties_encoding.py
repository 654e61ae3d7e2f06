"""The encoders' stream kernels equal their per-word form (hypothesis).

For all seven E3 candidates (raw, Gray, T0, XOR-difference, bus-invert and
the functional transform with and without its temporal stage) at widths
1–64, starting from the state a drawn prefix left:

* ``encode_stream`` gives the physical words and redundant wire of an
  ``encode`` loop and leaves the same state;
* ``decode_stream`` recovers the words and leaves the state of the
  interleaved ``encode``/``decode`` loop;
* ``measure_encoder`` gives the report of the per-word walk in
  ``tests/encoding_oracle.py``.

``FunctionalEncoder.fit`` (one Gram matrix) learns the partner table of the
pairwise loop in ``tests/encoding_oracle.py``, duplicate and constant bit
columns and one- and two-word streams included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.encoding import (
    BusInvertEncoder,
    FunctionalEncoder,
    GrayEncoder,
    RawEncoder,
    T0Encoder,
    XorDiffEncoder,
    measure_encoder,
)

from .encoding_oracle import oracle_measure, oracle_partners

#: The redundant wire's state attribute, per encoder with one.
WIRES = {"t0": "_inc_wire", "bus_invert": "_polarity"}


def partner_tables(width: int):
    """A legal partner table: ``-1`` or a partner above each bit."""
    return st.tuples(
        *[
            st.one_of(st.just(-1), st.integers(min_value=bit + 1, max_value=width - 1))
            if bit < width - 1
            else st.just(-1)
            for bit in range(width)
        ]
    ).map(list)


@st.composite
def candidates(draw, width: int):
    """``(name, make, stride)``: a factory of one E3 candidate, and a stride for its streams."""
    name = draw(
        st.sampled_from(
            ["raw", "gray", "t0", "xor_diff", "bus_invert", "functional", "functional+xor"]
        )
    )
    stride = draw(st.sampled_from([1, 3, 4, 1 << width]))
    if name == "t0":
        return name, lambda: T0Encoder(width, stride=stride), stride
    if name.startswith("functional"):
        partners = draw(partner_tables(width))
        xor_previous = name.endswith("+xor")
        return (
            name,
            lambda: FunctionalEncoder(width, xor_previous=xor_previous, partners=partners),
            stride,
        )
    classes = {
        "raw": RawEncoder,
        "gray": GrayEncoder,
        "xor_diff": XorDiffEncoder,
        "bus_invert": BusInvertEncoder,
    }
    return name, lambda: classes[name](width), stride


@st.composite
def word_streams(draw, width: int, stride: int):
    """Segments of random words, equal words, ``0``/``mask`` and ``0``/half-mask
    alternations (bus-invert's toggle and tie) and exact stride runs."""
    mask = (1 << width) - 1
    word = st.integers(min_value=0, max_value=mask)
    words: list[int] = []
    for shape in draw(
        st.lists(st.sampled_from(["random", "equal", "full", "half", "stride"]), max_size=4)
    ):
        count = draw(st.integers(min_value=1, max_value=16))
        if shape == "random":
            words += draw(st.lists(word, min_size=1, max_size=count))
        elif shape == "equal":
            words += [draw(word)] * count
        elif shape == "full":
            words += [0, mask] * count
        elif shape == "half":
            words += [0, (1 << (width // 2)) - 1] * count
        else:
            start = draw(word)
            words += [(start + step * stride) & mask for step in range(count)]
    return words


@given(width=st.integers(min_value=1, max_value=64), data=st.data())
@settings(max_examples=300, deadline=None)
def test_stream_kernels_equal_the_per_word_oracle(width, data):
    name, make, stride = data.draw(candidates(width))
    prefix = data.draw(word_streams(width, stride))
    words = data.draw(word_streams(width, stride))
    streamed, encoded, looped = make(), make(), make()
    for encoder in (streamed, encoded, looped):
        for word in prefix:  # the stream does not start from reset
            encoder.decode(encoder.encode(word))

    expected_physical, expected_wire = [], []
    for word in words:
        expected_physical.append(encoded.encode(word))
        if name in WIRES:
            expected_wire.append(getattr(encoded, WIRES[name]))
    physical, wire = streamed.encode_stream(np.array(words, dtype=np.uint64))
    assert physical.dtype == np.uint64
    assert physical.tolist() == expected_physical
    assert (wire is None) == (name not in WIRES)
    if wire is not None:
        assert wire.tolist() == expected_wire
    assert vars(streamed) == vars(encoded)

    decoded = [looped.decode(looped.encode(word)) for word in words]
    assert decoded == words
    assert streamed.decode_stream(physical, wire).tolist() == words
    assert vars(streamed) == vars(looped)

    measured, walked = make(), make()
    assert measure_encoder(measured, words) == oracle_measure(walked, words)
    assert vars(measured) == vars(walked)


@st.composite
def fit_streams(draw):
    """``(width, words)``: random words with some bit columns copied or held constant."""
    width = draw(st.integers(min_value=1, max_value=64))
    mask = (1 << width) - 1
    base = draw(st.lists(st.integers(min_value=0, max_value=mask), max_size=40))
    # Each output column is its own bit, a copy of another bit, or constant 0/1.
    sources = draw(
        st.lists(
            st.one_of(
                st.sampled_from(["own", "0", "1"]),
                st.integers(min_value=0, max_value=width - 1),
            ),
            min_size=width,
            max_size=width,
        )
    )
    words = []
    for value in base:
        word = 0
        for bit, source in enumerate(sources):
            if source == "own":
                word |= value & (1 << bit)
            elif source == "1":
                word |= 1 << bit
            elif source != "0":
                word |= ((value >> source) & 1) << bit
        words.append(word)
    return width, words


@given(case=fit_streams())
@example(case=(1, [1]))
@example(case=(8, [0x0F, 0xF0]))
@example(case=(16, [0xA5A5] * 5))
@example(case=(64, [0, (1 << 64) - 1, 0, (1 << 63) | 1]))
@settings(max_examples=150, deadline=None)
def test_gram_fit_equals_the_pairwise_loop(case):
    width, words = case
    expected = oracle_partners(words, width)
    for xor_previous in (False, True):
        fitted = FunctionalEncoder.fit(words, width=width, xor_previous=xor_previous)
        assert fitted.partners == expected
    array = np.array(words, dtype=np.uint64)
    assert FunctionalEncoder.fit(array, width=width).partners == expected
