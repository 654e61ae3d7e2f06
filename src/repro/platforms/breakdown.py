"""System energy breakdown records."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EnergyBreakdown", "check_report"]


@dataclass
class EnergyBreakdown:
    """Memory-subsystem energy of one program run, by component (pJ).

    The 1B-2 paper's metric is the *memory-subsystem* energy: caches, the
    off-chip bus, main memory, and (when enabled) the compression unit.  Core
    datapath energy is excluded on both sides of every comparison, so it
    cancels.
    """

    icache: float = 0.0
    dcache: float = 0.0
    bus: float = 0.0
    ibus: float = 0.0
    dram: float = 0.0
    compression_unit: float = 0.0
    spm: float = 0.0

    @property
    def total(self) -> float:
        """Total memory-subsystem energy (pJ)."""
        return (
            self.icache
            + self.dcache
            + self.bus
            + self.ibus
            + self.dram
            + self.compression_unit
            + self.spm
        )

    def as_dict(self) -> dict[str, float]:
        """Component name → pJ mapping (insertion-ordered)."""
        return {
            "icache": self.icache,
            "dcache": self.dcache,
            "bus": self.bus,
            "ibus": self.ibus,
            "dram": self.dram,
            "compression_unit": self.compression_unit,
            "spm": self.spm,
        }

    def fraction(self, component: str) -> float:
        """Share of the total taken by ``component`` (0 when total is 0)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.as_dict()[component] / total

    def saving_vs(self, baseline: "EnergyBreakdown") -> float:
        """Fractional energy saved relative to ``baseline`` (negative = worse)."""
        if baseline.total == 0:
            return 0.0
        return 1.0 - self.total / baseline.total


def check_report(report: str, breakdown: EnergyBreakdown, **counts) -> None:
    """Postcondition of a platform report: energies and counts are ``>= 0``.

    Checks every ``breakdown`` component and every keyword count (bytes,
    accesses, cycles); the first negative or NaN one raises ``ValueError``
    naming ``report`` and the field.
    """
    fields = {f"breakdown.{name}": pj for name, pj in breakdown.as_dict().items()}
    for name, value in {**fields, **counts}.items():
        if not value >= 0:
            raise ValueError(f"{report}.{name} must be >= 0, got {value!r}")
