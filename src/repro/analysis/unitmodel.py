"""The declarative unit model behind the UNT rules.

This module is to :mod:`repro.analysis.units` what
:data:`repro.analysis.imports.REPRO_LAYER_MODEL` is to the layering rules:
the *data* the checker interprets.  It declares

* the physical dimensions and scales the package computes in
  (:class:`Unit`),
* the **suffix convention** — a name ending in ``_pj``, ``_nj``,
  ``_cycles``, ``_bits``, ``_bytes``, ``_ratio``, ``_ns``, ``_seconds`` or
  ``_hz`` *declares* its unit (ARCHITECTURE.md "Units and dimensions"),
* a **registry** of known function signatures and dataclass fields across
  the energy-bearing packages (``memory``, ``partition``, ``cache``,
  ``spm``, ``reconfig``, ``platforms``, ``encoding``) and the
  observability surface (``obs`` spans, counters, clocks), so quantities
  whose names predate the convention still participate in the analysis.

Adding a new energy-bearing API therefore means declaring its units here in
the same commit — the same review trigger the layer model creates for
dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "Unit",
    "FunctionUnits",
    "UnitModel",
    "PJ",
    "NJ",
    "CYCLES",
    "SECONDS",
    "NS",
    "BITS",
    "BYTES",
    "RATIO",
    "HZ",
    "RATE",
    "REPRO_UNIT_MODEL",
]


@dataclass(frozen=True)
class Unit:
    """One physical unit: a dimension plus a scale within it.

    Two units with the same ``dimension`` but different ``scale`` are
    *magnitude-incompatible* (pJ vs nJ, bits vs bytes): adding them is a
    finding even though the dimension matches.
    """

    dimension: str
    scale: str

    def __str__(self) -> str:
        return self.scale


PJ = Unit("energy", "pJ")
NJ = Unit("energy", "nJ")
CYCLES = Unit("cycles", "cycles")
SECONDS = Unit("time", "s")
NS = Unit("time", "ns")
BITS = Unit("information", "bits")
BYTES = Unit("information", "bytes")
RATIO = Unit("ratio", "ratio")
HZ = Unit("frequency", "Hz")

#: Sentinel for per-unit rate coefficients (``e_per_byte``, pJ/byte) whose
#: numerator carries no recognised suffix.  Rates annihilate in products —
#: ``rate * count`` is a compound the analysis does not track — and are
#: transparent in additive and comparison positions.
RATE = Unit("rate", "per-unit")


@dataclass(frozen=True)
class FunctionUnits:
    """Declared units of one callable.

    ``params`` maps parameter names to units; ``positional`` lists the
    parameter order for positional-argument checking (``None`` disables it —
    used for registry entries keyed by bare method name, where unrelated
    classes may share the name with different signatures but agree on the
    return unit).  ``self`` is never counted: positional indices are
    relative to the first declared parameter.
    """

    returns: Unit | None = None
    params: Mapping[str, "Unit"] = field(default_factory=dict)
    positional: tuple[str, ...] | None = None


def _pj(**params: Unit) -> FunctionUnits:
    return FunctionUnits(returns=PJ, params=dict(params))


@dataclass(frozen=True)
class UnitModel:
    """Everything the units checker knows about a codebase.

    Parameters
    ----------
    suffixes:
        Name suffix (with leading underscore) → declared unit.  A bare name
        equal to the suffix body (``cycles``, ``bits``, ``bytes``) declares
        the same unit.
    functions:
        Callable name → :class:`FunctionUnits`.  Keys are either fully
        qualified dotted names (``repro.units.pj_to_nj``, matched through
        import aliases) or bare trailing names (``read_energy``, matched
        against any call whose attribute chain ends there).
    attributes:
        Attribute / dataclass-field name → unit, for names that predate the
        suffix convention (``breakdown.dram`` is pJ, ``event.size`` bytes).
        Only names whose meaning is unambiguous across the whole package
        belong here; anything else must use a suffixed name instead.
    literal_allowlist:
        Numeric literals that may be folded into strict-dimension
        arithmetic without a UNT006 finding (0 and 0.0 are always allowed).
    strict_literal_dimensions:
        Dimensions for which folding a unitless literal into ``+``/``-``
        arithmetic fires UNT006.  Count-like dimensions (cycles,
        information) are excluded: ``size + alignment - 1`` is idiomatic.
    canonical_suffixes:
        Unit → the suffix ``--fix-suffixes`` proposes for it.
    """

    suffixes: Mapping[str, Unit]
    functions: Mapping[str, FunctionUnits]
    attributes: Mapping[str, Unit]
    literal_allowlist: frozenset = frozenset()
    strict_literal_dimensions: frozenset = frozenset({"energy", "time", "frequency"})
    canonical_suffixes: Mapping[Unit, str] = field(default_factory=dict)

    def suffix_unit(self, name: str) -> Unit | None:
        """Unit declared by ``name``'s suffix (or the bare suffix body), if any.

        Names containing ``_per_`` are rate coefficients: the unit is the
        numerator's (``decompress_cycles_per_word`` is cycles), falling back
        to the :data:`RATE` sentinel when the numerator carries no suffix
        (``e_per_byte``).  Either way the product with a count collapses to
        *untracked* instead of inheriting the count's unit.
        """
        lowered = name.lower()
        numerator, per, _ = lowered.partition("_per_")
        if per:
            return self.suffix_unit(numerator) or RATE
        for suffix, unit in self.suffixes.items():
            if lowered.endswith(suffix) or lowered == suffix[1:]:
                return unit
        return None

    def attribute_unit(self, attr: str) -> Unit | None:
        """Unit of attribute ``attr``: suffix convention first, then registry."""
        declared = self.suffix_unit(attr)
        if declared is not None:
            return declared
        return self.attributes.get(attr)

    def function_units(self, qualified: str | None) -> FunctionUnits | None:
        """Signature for a resolved callable name, or ``None``.

        Lookup order: the fully qualified name, its bare trailing segment,
        then the suffix convention on the trailing segment (a function
        *named* with a unit suffix returns that unit).
        """
        if qualified is None:
            return None
        if qualified in self.functions:
            return self.functions[qualified]
        tail = qualified.rsplit(".", 1)[-1]
        if tail in self.functions:
            return self.functions[tail]
        declared = self.suffix_unit(tail)
        if declared is not None:
            return FunctionUnits(returns=declared)
        return None

    def literal_allowed(self, value: float) -> bool:
        """Whether folding literal ``value`` into strict arithmetic is allowed."""
        return value == 0 or value in self.literal_allowlist


_SUFFIXES: dict[str, Unit] = {
    "_pj": PJ,
    "_nj": NJ,
    "_cycles": CYCLES,
    "_bits": BITS,
    "_bytes": BYTES,
    "_ratio": RATIO,
    "_ns": NS,
    "_seconds": SECONDS,
    "_hz": HZ,
}

#: Conversion helpers (:mod:`repro.units`) — full signatures, positional
#: checking enabled: these are the one place a magnitude may legally change,
#: so a wrong-unit argument here is always a real bug.
_CONVERSION_HELPERS: dict[str, FunctionUnits] = {
    "repro.units.pj_to_nj": FunctionUnits(NJ, {"energy_pj": PJ}, ("energy_pj",)),
    "repro.units.nj_to_pj": FunctionUnits(PJ, {"energy_nj": NJ}, ("energy_nj",)),
    "repro.units.bits_to_bytes": FunctionUnits(BYTES, {"num_bits": BITS}, ("num_bits",)),
    "repro.units.bytes_to_bits": FunctionUnits(BITS, {"num_bytes": BYTES}, ("num_bytes",)),
    "repro.units.cycles_to_seconds": FunctionUnits(
        SECONDS, {"cycles": CYCLES, "freq_hz": HZ}, ("cycles", "freq_hz")
    ),
    "repro.units.pw_ns_to_pj": FunctionUnits(
        PJ, {"time_ns": NS}, None
    ),
}

#: Energy-model surface, keyed by bare method name (shared across
#: SRAMEnergyModel / DRAMEnergyModel / BusEnergyModel / DecoderEnergyModel /
#: MemoryBank / MainMemory / Bus / CompressionUnit / SPMConfig — signatures
#: differ, return unit does not, so positional checking stays off except
#: where every homonym agrees).
_ENERGY_FUNCTIONS: dict[str, FunctionUnits] = {
    "read_energy": _pj(capacity_bytes=BYTES, word_bytes=BYTES),
    "write_energy": _pj(capacity_bytes=BYTES, word_bytes=BYTES),
    "leakage_energy": _pj(capacity_bytes=BYTES, cycles=CYCLES, cycle_time_ns=NS),
    "access_energy": _pj(num_bytes=BYTES),
    "operation_energy": FunctionUnits(PJ, {"original_bytes": BYTES}, ("original_bytes",)),
    "latency_cycles": FunctionUnits(CYCLES, {"original_bytes": BYTES}, ("original_bytes",)),
    "segment_cost": _pj(),
    "decoder_cost": _pj(),
    "partition_cost": _pj(),
    "monolithic_cost": _pj(),
    "read_burst": _pj(num_bytes=BYTES),
    "write_burst": _pj(num_bytes=BYTES),
    "drive": _pj(),
    "drive_all": _pj(),
    "drive_bytes": _pj(),
    "energy": _pj(),
    "measured_cache_path_energy": _pj(),
}

#: Columnar-engine surface (:mod:`repro.trace.columnar` and the vectorized
#: playback built on it).  The kernels return counts or tuples — no tracked
#: unit — but their cycle/byte parameters participate in the dataflow, and
#: registering them keeps the suffix fallback from guessing.
_COLUMNAR_FUNCTIONS: dict[str, FunctionUnits] = {
    "repro.trace.columnar.idle_interval_split": FunctionUnits(
        None, {"timeout_cycles": CYCLES}, None
    ),
    "repro.trace.columnar.assign_banks": FunctionUnits(None, {}, None),
    "repro.trace.columnar.per_bank_read_write_counts": FunctionUnits(None, {}, None),
    # ColumnarTrace summaries: block indices and an address tuple (bytes are
    # the elements, not the tuple, so the return stays untracked).
    "block_ids": FunctionUnits(None, {"block_size": BYTES}, ("block_size",)),
    "address_range": FunctionUnits(None, {}, None),
}

#: Observability surface (:mod:`repro.obs`).  Keyed by bare trailing name —
#: relative imports resolve to bare tails in the alias map.  Span/counter
#: helpers return nothing tracked (counter *values* carry their unit in the
#: counter name, e.g. ``play.energy_pj``, outside the variable dataflow);
#: clocks return seconds, declared so arithmetic on readings participates.
_OBS_FUNCTIONS: dict[str, FunctionUnits] = {
    "span": FunctionUnits(None, {}, None),
    "span_start": FunctionUnits(None, {}, None),
    "span_end": FunctionUnits(None, {}, None),
    "counter": FunctionUnits(None, {}, None),
    "record_manifest": FunctionUnits(None, {}, None),
    "collect_manifest": FunctionUnits(None, {}, None),
    "config_fingerprint": FunctionUnits(None, {}, None),
    "now_seconds": FunctionUnits(SECONDS, {}, None),
}

#: Batch-sweep surface (:mod:`repro.batch`).  Digests, keys, and shard
#: indices are dimensionless identifiers; ``run_sweep``'s backoff knobs
#: carry seconds (declared so the exponential-delay arithmetic in the
#: runner participates in dataflow checking).
_BATCH_FUNCTIONS: dict[str, FunctionUnits] = {
    "trace_digest": FunctionUnits(None, {}, None),
    "cache_key": FunctionUnits(None, {}, None),
    "shard_of": FunctionUnits(None, {}, None),
    "assign_shards": FunctionUnits(None, {}, None),
    "spec_fingerprint": FunctionUnits(None, {}, None),
    "run_flow": FunctionUnits(None, {}, None),
    "trace_to_application": FunctionUnits(None, {"region_bytes": BYTES}, None),
    "run_sweep": FunctionUnits(
        None,
        {"backoff_seconds": SECONDS, "max_backoff_seconds": SECONDS},
        None,
    ),
}

#: Attribute names with package-wide unambiguous units.  Names that are
#: energy in one class and something else in another (``total`` is pJ on
#: EnergyBreakdown but an access *count* on BlockStats) are deliberately
#: absent — ambiguous quantities must carry a suffix instead.
_ATTRIBUTES: dict[str, Unit] = {
    # energy (pJ) — breakdown fields, stats, model parameters
    "icache": PJ,
    "dcache": PJ,
    "bus": PJ,
    "ibus": PJ,
    "dram": PJ,
    "compression_unit": PJ,
    "spm": PJ,
    "e_fixed": PJ,
    "e_activation": PJ,
    "e_context_load": PJ,
    "e_l0_access": PJ,
    "e_l1_access": PJ,
    "access_energy": PJ,
    "transfer_energy": PJ,
    "context_energy": PJ,
    "data_energy": PJ,
    "bank_energy": PJ,
    "decoder_energy": PJ,
    "leakage_energy": PJ,
    "always_on_leakage": PJ,
    "managed_leakage": PJ,
    "total_managed": PJ,
    "wake_energy": PJ,
    "predicted_benefit": PJ,
    "cache_path_energy": PJ,
    "lookup_energy_total": PJ,
    "energy": PJ,
    "energy_delay_product": PJ,  # pJ·cycles; additive only against itself
    # information
    "size": BYTES,
    "address": BYTES,
    "line_address": BYTES,
    "end_address": BYTES,
    "base": BYTES,
    "limit": BYTES,
    "capacity": BYTES,
    "footprint": BYTES,
    "stored_size": BYTES,
    "original_bytes": BYTES,
    "transfer_bytes": BYTES,
    "width": BITS,
    "bus_width": BITS,
    "bit_length": BITS,
    # time
    "time": CYCLES,
    "first_time": CYCLES,
    "last_time": CYCLES,
    # ratios
    "sleep_factor": RATIO,
    "sleep_fraction": RATIO,
    "reduction": RATIO,
    "mean_ratio": RATIO,
    "spm_coverage": RATIO,
    "size_reduction": RATIO,
    "slowdown": RATIO,
}

#: The repro unit model: the suffix convention plus the registry over the
#: energy-bearing packages.
REPRO_UNIT_MODEL = UnitModel(
    suffixes=_SUFFIXES,
    functions={
        **_CONVERSION_HELPERS,
        **_ENERGY_FUNCTIONS,
        **_COLUMNAR_FUNCTIONS,
        **_OBS_FUNCTIONS,
        **_BATCH_FUNCTIONS,
    },
    attributes=_ATTRIBUTES,
    literal_allowlist=frozenset(),
    canonical_suffixes={
        PJ: "_pj",
        NJ: "_nj",
        CYCLES: "_cycles",
        BITS: "_bits",
        BYTES: "_bytes",
        RATIO: "_ratio",
        NS: "_ns",
        SECONDS: "_seconds",
        HZ: "_hz",
    },
)
