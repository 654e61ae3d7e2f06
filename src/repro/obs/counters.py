"""Counter names and the aggregating registry.

Counter *names* are declared here, once, so producers (the playback
layers) and consumers (``repro obs``, the tests) agree on the vocabulary —
the same reviewed-in-one-place policy the unit model and the layer model
follow.  Names are dotted ``layer.measure`` with the unit suffix
convention on the measure (``_pj`` for picojoule quantities); labels ride
in attrs (``stage=``, ``bank=``, ``component=``).

:class:`CounterRegistry` aggregates samples by ``(name, attrs)`` — the
accumulation used both on the replay side (summing a JSONL log) and in
tests (asserting counter totals match simulation reports).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

__all__ = [
    "PLAY_EVENTS",
    "PLAY_BANK_HITS",
    "PLAY_ENERGY_PJ",
    "SLEEP_WAKE_EVENTS",
    "SLEEP_ENERGY_PJ",
    "PROFILE_EVENTS",
    "PROFILE_BLOCKS",
    "SPM_BLOCKS",
    "SPM_BENEFIT_PJ",
    "RECONFIG_KERNELS",
    "STAGE_ENERGY_PJ",
    "FLOW_TOTAL_PJ",
    "PLATFORM_ENERGY_PJ",
    "COMPRESS_OFFCHIP_BYTES",
    "attrs_key",
    "CounterRegistry",
]

# -- memory playback (PartitionedMemory.play) ---------------------------------------
PLAY_EVENTS = "play.events"
PLAY_BANK_HITS = "play.bank_hits"
PLAY_ENERGY_PJ = "play.energy_pj"

# -- bank-sleep simulation (simulate_bank_sleep) ------------------------------------
SLEEP_WAKE_EVENTS = "sleep.wake_events"
SLEEP_ENERGY_PJ = "sleep.energy_pj"

# -- access profiling (AccessProfile) -----------------------------------------------
PROFILE_EVENTS = "profile.events"
PROFILE_BLOCKS = "profile.blocks"

# -- scratchpad allocation (SPMAllocator) -------------------------------------------
SPM_BLOCKS = "spm.blocks_allocated"
SPM_BENEFIT_PJ = "spm.benefit_pj"

# -- reconfigurable-fabric scheduling (EnergyAwareScheduler) ------------------------
RECONFIG_KERNELS = "reconfig.kernels"

# -- flow-level accounting (core pipeline, platforms) -------------------------------
STAGE_ENERGY_PJ = "stage.energy_pj"
FLOW_TOTAL_PJ = "flow.total_pj"
PLATFORM_ENERGY_PJ = "platform.energy_pj"
COMPRESS_OFFCHIP_BYTES = "compress.offchip_bytes"


def attrs_key(attrs: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
    """Canonical hashable key for a counter's label attrs (sorted items)."""
    return tuple(sorted(attrs.items()))


class CounterRegistry:
    """Aggregates counter samples by ``(name, attrs)``.

    Values add; insertion order of first encounter is preserved per name so
    sums replayed from a log visit samples in recorded order — which is
    what makes replayed float sums bit-identical to the producer's.
    """

    def __init__(self) -> None:
        self._totals: dict[str, dict[tuple, float]] = {}

    def add(self, name: str, value: float, **attrs) -> None:
        """Accumulate one sample."""
        series = self._totals.setdefault(name, {})
        key = attrs_key(attrs)
        series[key] = series.get(key, 0) + value

    def total(self, name: str, **attrs) -> float:
        """Total for one exact ``(name, attrs)`` series (0 if never seen)."""
        return self._totals.get(name, {}).get(attrs_key(attrs), 0)

    def grand_total(self, name: str) -> float:
        """Sum over every attrs series of ``name``, in first-seen order."""
        total = 0
        for value in self._totals.get(name, {}).values():
            total += value
        return total

    def series(self, name: str) -> dict[tuple, float]:
        """All attrs series of ``name`` (first-seen order), as a copy."""
        return dict(self._totals.get(name, {}))

    def names(self) -> list[str]:
        """Counter names seen so far, in first-seen order."""
        return list(self._totals)

    def rows(self) -> list[dict]:
        """One ``{name, attrs, value}`` row per series, in first-seen order.

        The counter rows of the ``obs-report`` and the canonical timeline.
        """
        return [
            {"name": name, "attrs": dict(key), "value": value}
            for name, series in self._totals.items()
            for key, value in series.items()
        ]

    @classmethod
    def from_events(cls, events: Iterable[Mapping]) -> "CounterRegistry":
        """Build a registry from replayed ``counter`` events (log order)."""
        registry = cls()
        for event in events:
            if event.get("kind") == "counter":
                registry.add(event["name"], event["value"], **event.get("attrs", {}))
        return registry
