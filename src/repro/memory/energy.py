"""Analytical memory energy models.

The original papers used industrial per-access energy characterizations
(STMicroelectronics memory generators, proprietary DRAM sheets).  Those are
not available, so this module provides **CACTI-class analytical models**: the
per-access energy of an SRAM grows with capacity (longer bitlines/wordlines,
bigger decoders), DRAM accesses cost roughly an order of magnitude more than
on-chip SRAM, and bus energy is proportional to switched capacitance (i.e. bit
transitions × wire capacitance).

Only *relative* energies matter for every claim reproduced here ("clustering
saves X % vs partitioning alone"), and the analytical forms below preserve the
relationships that drive all of those claims:

* smaller SRAM  ⇒ cheaper per access (superlinear in capacity),
* more banks    ⇒ more decoder/selection overhead per access,
* off-chip >> on-chip per access,
* fewer bus transitions ⇒ proportionally less bus energy.

All energies are reported in **picojoules** with magnitudes representative of
a ~0.18 µm embedded process (the technology node of the papers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..units import bytes_to_bits, pw_ns_to_pj

__all__ = [
    "SRAMEnergyModel",
    "DRAMEnergyModel",
    "BusEnergyModel",
    "DecoderEnergyModel",
]


@dataclass(frozen=True)
class SRAMEnergyModel:
    """Per-access energy of an on-chip SRAM as a function of capacity.

    The model is the usual square-array abstraction: a ``capacity_bytes``
    memory with ``word_bytes`` words is an array of roughly
    ``sqrt(bits) × sqrt(bits)`` cells, so both the wordline and the bitline
    energy grow with ``sqrt(capacity)``; the row/column decoders add a term
    logarithmic in the number of words.

    ``read_energy``/``write_energy`` return picojoules per access.

    Parameters
    ----------
    e_fixed:
        Fixed per-access overhead (sense amps, control), pJ.
    e_array:
        Array term coefficient, pJ per sqrt(bit).
    e_decode:
        Decoder term coefficient, pJ per address bit.
    write_factor:
        Writes cost slightly more than reads (full-swing bitlines).
    leakage_pw_per_bit:
        Leakage power per bit, picowatts; used for idle-energy accounting.
    """

    e_fixed: float = 2.0
    e_array: float = 0.03
    e_decode: float = 0.15
    write_factor: float = 1.2
    leakage_pw_per_bit: float = 0.01

    def read_energy(self, capacity_bytes: int, word_bytes: int = 4) -> float:
        """Energy (pJ) of one read from an SRAM of ``capacity_bytes``."""
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        if word_bytes <= 0:
            raise ValueError(f"word_bytes must be positive, got {word_bytes}")
        bits = bytes_to_bits(capacity_bytes)
        words = max(1, capacity_bytes // word_bytes)
        array_term = self.e_array * math.sqrt(bits)
        decode_term = self.e_decode * math.log2(words) if words > 1 else 0.0
        return self.e_fixed + array_term + decode_term

    def write_energy(self, capacity_bytes: int, word_bytes: int = 4) -> float:
        """Energy (pJ) of one write to an SRAM of ``capacity_bytes``."""
        return self.read_energy(capacity_bytes, word_bytes) * self.write_factor

    def leakage_energy(self, capacity_bytes: int, cycles: int, cycle_time_ns: float = 10.0) -> float:
        """Leakage energy (pJ) of the array over ``cycles`` clock cycles."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        bits = bytes_to_bits(capacity_bytes)
        return pw_ns_to_pj(bits * self.leakage_pw_per_bit, cycles * cycle_time_ns)


@dataclass(frozen=True)
class DRAMEnergyModel:
    """Per-access energy of off-chip main memory.

    Off-chip accesses pay for the I/O pads and the DRAM core; per-access cost
    is roughly constant for a given burst size and dwarfs on-chip SRAM cost.
    """

    e_activation: float = 400.0
    e_per_byte: float = 12.0

    def access_energy(self, num_bytes: int) -> float:
        """Energy (pJ) of transferring ``num_bytes`` in one burst."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        return self.e_activation + self.e_per_byte * num_bytes


@dataclass(frozen=True)
class BusEnergyModel:
    """Energy of a parallel bus, proportional to bit transitions.

    ``energy(transitions)`` = transitions × C_wire × V² / 2, folded into a
    single per-transition coefficient in pJ.  Off-chip wires are roughly an
    order of magnitude more capacitive than on-chip global wires.
    """

    e_per_transition: float = 0.8

    @classmethod
    def on_chip(cls) -> "BusEnergyModel":
        """Typical on-chip global bus wire."""
        return cls(e_per_transition=0.8)

    @classmethod
    def off_chip(cls) -> "BusEnergyModel":
        """Typical off-chip (pad + board trace) wire."""
        return cls(e_per_transition=8.0)

    def energy(self, transitions: int | np.ndarray) -> float | np.ndarray:
        """Energy (pJ) of ``transitions`` bit toggles, or of each count in an array."""
        lowest = transitions.min(initial=0) if isinstance(transitions, np.ndarray) else transitions
        if lowest < 0:
            raise ValueError(f"transitions must be non-negative, got {lowest}")
        return self.e_per_transition * transitions


@dataclass(frozen=True)
class DecoderEnergyModel:
    """Bank-selection decoder in a partitioned memory.

    Every access to a ``k``-bank memory pays a selection cost that grows with
    ``log2(k)`` (the decoder) plus a small per-bank wiring term.  This is the
    overhead that makes "more banks" stop paying off — the crossover the
    bank-sweep experiment (E1a) must show.
    """

    e_per_select_bit: float = 0.35
    e_per_bank_wire: float = 0.05

    def access_energy(self, num_banks: int) -> float:
        """Energy (pJ) added to each access by the bank decoder."""
        if num_banks <= 0:
            raise ValueError(f"num_banks must be positive, got {num_banks}")
        if num_banks == 1:
            return 0.0
        return self.e_per_select_bit * math.log2(num_banks) + self.e_per_bank_wire * num_banks
