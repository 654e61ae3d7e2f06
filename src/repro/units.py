"""Runtime unit-conversion helpers.

Every quantity in this package carries its unit in its *name* (``_pj``,
``_cycles``, ``_bytes``, ...; see ARCHITECTURE.md "Units and dimensions") and
every magnitude change goes through one of the helpers below — never through
an inline ``* 1e-3`` or ``// 8`` — so each conversion is named at its call
site.

The package-wide unit conventions these helpers anchor:

* energy is accounted in **picojoules** (pJ); nanojoules appear only at
  report boundaries,
* information is counted in **bits** or **bytes**, converted explicitly,
* time is **cycles** at the architectural level; wall time (seconds,
  nanoseconds) enters only through an explicit frequency or cycle time.
"""

from __future__ import annotations

__all__ = [
    "PJ_PER_NJ",
    "BITS_PER_BYTE",
    "PJ_PER_PW_NS",
    "pj_to_nj",
    "nj_to_pj",
    "bits_to_bytes",
    "bytes_to_bits",
    "cycles_to_seconds",
    "pw_ns_to_pj",
]

#: Picojoules per nanojoule.
PJ_PER_NJ = 1000.0

#: Bits per byte.
BITS_PER_BYTE = 8

#: Picojoules per picowatt-nanosecond (1 pW · 1 ns = 1e-21 J = 1e-9 pJ).
PJ_PER_PW_NS = 1e-9


def pj_to_nj(energy_pj: float) -> float:
    """Convert an energy from picojoules to nanojoules."""
    # The conversion helpers are the one place magnitudes may legally mix.
    return energy_pj / PJ_PER_NJ


def nj_to_pj(energy_nj: float) -> float:
    """Convert an energy from nanojoules to picojoules."""
    return energy_nj * PJ_PER_NJ


def bits_to_bytes(num_bits: int) -> int:
    """Convert an exact bit count to bytes; reject sub-byte remainders.

    Storage sizing that deliberately rounds up should say so at the call
    site (``bits_to_bytes(num_bits + BITS_PER_BYTE - 1 - (num_bits - 1) %
    BITS_PER_BYTE)`` is never what you want — keep the ceil arithmetic in
    bit space, then convert).
    """
    if num_bits % BITS_PER_BYTE:
        raise ValueError(
            f"num_bits must be a whole number of bytes, got {num_bits} "
            f"(remainder {num_bits % BITS_PER_BYTE})"
        )
    return num_bits // BITS_PER_BYTE


def bytes_to_bits(num_bytes: int) -> int:
    """Convert a byte count to bits."""
    return num_bytes * BITS_PER_BYTE


def cycles_to_seconds(cycles: float, freq_hz: float) -> float:
    """Convert a cycle count at ``freq_hz`` to seconds."""
    if freq_hz <= 0:
        raise ValueError(f"freq_hz must be positive, got {freq_hz}")
    return cycles / freq_hz


def pw_ns_to_pj(power_pw: float, time_ns: float) -> float:
    """Energy (pJ) of ``power_pw`` picowatts sustained for ``time_ns`` nanoseconds."""
    return power_pw * time_ns * PJ_PER_PW_NS
