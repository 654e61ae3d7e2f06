"""End-to-end optimization flow: trace → profile → cluster → partition → energy.

This module reproduces the 1B-1 experimental methodology:

1. profile the application's data-address trace at block granularity;
2. build the **identity** layout and partition it (the paper's baseline:
   "partitioned memory architecture synthesized without address clustering");
3. build a **clustered** layout and partition that;
4. simulate all three memories (monolithic, partitioned-identity,
   partitioned-clustered) on the appropriately remapped traces and compare.

The headline number of the paper — *energy reduction w.r.t. a partitioned
memory synthesized without address clustering* — is
:attr:`FlowResult.saving_vs_partitioned`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..memory.energy import DecoderEnergyModel, SRAMEnergyModel
from ..obs.counters import FLOW_TOTAL_PJ, STAGE_ENERGY_PJ
from ..obs.manifest import RunManifest, collect_manifest, config_fingerprint
from ..obs.recorder import Recorder
from ..obs.spans import span
from ..partition.cost import PartitionCostModel
from ..partition.evaluate import SimulatedPartitionEnergy, simulate_partition
from ..partition.greedy import EvenPartitioner, GreedyPartitioner
from ..partition.optimal import OptimalPartitioner, PartitionResult
from ..partition.spec import PartitionSpec
from ..trace.profile import AccessProfile
from ..trace.trace import Trace
from .clustering import (
    _STRATEGIES,
    ClusteringStrategy,
    IdentityClustering,
    get_strategy,
)
from .layout import BlockLayout

__all__ = [
    "FLOW_RESULT_SCHEMA_VERSION",
    "FlowConfig",
    "FlowResult",
    "FlowVariant",
    "MemoryOptimizationFlow",
]

#: Version of the :meth:`FlowResult.to_dict` payload layout (pinned by the
#: schema registry; bump when keys are renamed or removed).
FLOW_RESULT_SCHEMA_VERSION = 1

#: Partitioners by :attr:`FlowConfig.partitioner` name; each takes the bank
#: budget as its first argument.
_PARTITIONERS = {
    "optimal": OptimalPartitioner,
    "greedy": GreedyPartitioner,
    "even": EvenPartitioner,
}


@dataclass
class FlowConfig:
    """Configuration of the optimization flow.

    Parameters
    ----------
    block_size:
        Clustering/partitioning granularity in bytes.
    max_banks:
        Bank budget handed to the partitioner.
    strategy:
        Clustering strategy name (see :func:`repro.core.clustering.get_strategy`)
        or an instantiated :class:`ClusteringStrategy`.
    partitioner:
        ``"optimal"`` (DP), ``"greedy"``, or ``"even"``.
    round_pow2:
        Round bank capacities up to powers of two.
    include_leakage:
        Charge bank leakage over the trace duration in simulated energies.
    strategy_options:
        Extra keyword arguments for the strategy constructor (when ``strategy``
        is a name).
    """

    block_size: int = 32
    max_banks: int = 8
    strategy: str | ClusteringStrategy = "affinity"
    partitioner: str = "optimal"
    round_pow2: bool = False
    include_leakage: bool = False
    sram_model: SRAMEnergyModel = field(default_factory=SRAMEnergyModel)
    decoder_model: DecoderEnergyModel = field(default_factory=DecoderEnergyModel)
    strategy_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Configs arrive from ``--set`` strings and sweep specs: a value of
        # the wrong type must fail here, not be cast or read as truthy.
        for name in ("block_size", "max_banks"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ValueError(
                    f"FlowConfig.{name} must be a positive int, got {value!r}"
                )
        for name in ("round_pow2", "include_leakage"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"FlowConfig.{name} must be a bool, got {value!r}")
        if self.partitioner not in _PARTITIONERS:
            raise ValueError(
                f"FlowConfig.partitioner must be one of {sorted(_PARTITIONERS)}, "
                f"got {self.partitioner!r}"
            )
        if (
            not isinstance(self.strategy, ClusteringStrategy)
            and self.strategy not in _STRATEGIES
        ):
            raise ValueError(
                f"FlowConfig.strategy must be a ClusteringStrategy or one of "
                f"{sorted(_STRATEGIES)}, got {self.strategy!r}"
            )

    def make_strategy(self) -> ClusteringStrategy:
        """Resolve the configured clustering strategy."""
        if isinstance(self.strategy, ClusteringStrategy):
            return self.strategy
        return get_strategy(self.strategy, **self.strategy_options)

    def make_partitioner(self):
        """Resolve the configured partitioner."""
        return _PARTITIONERS[self.partitioner](self.max_banks)

    def describe(self) -> dict:
        """Deterministic, fingerprintable view of this configuration.

        Feeds :func:`repro.obs.manifest.config_fingerprint`: plain values
        stay as-is, energy models flatten to their dataclass fields, and an
        instantiated strategy degrades to its class name (its options are
        not introspectable, so two differently-tuned instances of the same
        class fingerprint alike — pass strategy *names* for full fidelity).
        """
        strategy = self.strategy
        if isinstance(strategy, ClusteringStrategy):
            strategy = type(strategy).__name__
        return {
            "block_size": self.block_size,
            "max_banks": self.max_banks,
            "strategy": strategy,
            "partitioner": self.partitioner,
            "round_pow2": self.round_pow2,
            "include_leakage": self.include_leakage,
            "sram_model": asdict(self.sram_model),
            "decoder_model": asdict(self.decoder_model),
            "strategy_options": dict(self.strategy_options),
        }


@dataclass
class FlowVariant:
    """One evaluated memory organization."""

    label: str
    layout: BlockLayout
    spec: PartitionSpec
    predicted_energy: float
    simulated: SimulatedPartitionEnergy

    def to_dict(self) -> dict:
        """JSON-serializable view of this variant (plain builtins only).

        The layout itself is omitted — it is an intermediate artifact whose
        effect is fully captured by the simulated energies; the partition
        spec and the per-bank access counts pin the organization.
        """
        return {
            "label": self.label,
            "num_banks": int(self.spec.num_banks),
            "bank_blocks": [int(blocks) for blocks in self.spec.bank_blocks],
            "block_size": int(self.spec.block_size),
            "round_pow2": bool(self.spec.round_pow2),
            "predicted_energy": float(self.predicted_energy),
            "simulated": {
                "bank_energy": float(self.simulated.bank_energy),
                "decoder_energy": float(self.simulated.decoder_energy),
                "leakage_energy": float(self.simulated.leakage_energy),
                "accesses": int(self.simulated.accesses),
                "bank_access_counts": [
                    int(count) for count in self.simulated.bank_access_counts
                ],
                "total": float(self.simulated.total),
            },
        }


@dataclass
class FlowResult:
    """Outcome of the full flow on one trace."""

    trace_name: str
    config: FlowConfig
    profile_summary: dict
    monolithic: FlowVariant
    partitioned: FlowVariant  # identity layout (partitioning alone)
    clustered: FlowVariant  # clustered layout (the paper's technique)
    manifest: RunManifest | None = None

    def to_dict(self) -> dict:
        """JSON-serializable view of the full three-way comparison.

        Plain builtins only, deterministic key order, no environment
        manifest — this is the golden-corpus / batch-cache payload, so it
        must hash and compare identically across machines.  The manifest
        (which carries Python/OS identifiers) stays on the dataclass for
        callers that want provenance.
        """
        return {
            "trace_name": self.trace_name,
            "config": self.config.describe(),
            "profile_summary": {
                key: float(value) for key, value in self.profile_summary.items()
            },
            "variants": {
                variant.label: variant.to_dict()
                for variant in (self.monolithic, self.partitioned, self.clustered)
            },
            "saving_vs_partitioned": float(self.saving_vs_partitioned),
            "saving_vs_monolithic": float(self.saving_vs_monolithic),
            "partitioning_saving_vs_monolithic": float(
                self.partitioning_saving_vs_monolithic
            ),
        }

    @property
    def saving_vs_partitioned(self) -> float:
        """The paper's headline metric: energy saved by clustering, relative
        to a partitioned memory synthesized without clustering."""
        baseline = self.partitioned.simulated.total
        if baseline == 0:
            return 0.0
        return 1.0 - self.clustered.simulated.total / baseline

    @property
    def saving_vs_monolithic(self) -> float:
        """Energy saved by clustering+partitioning vs a single bank."""
        baseline = self.monolithic.simulated.total
        if baseline == 0:
            return 0.0
        return 1.0 - self.clustered.simulated.total / baseline

    @property
    def partitioning_saving_vs_monolithic(self) -> float:
        """Energy saved by partitioning alone vs a single bank."""
        baseline = self.monolithic.simulated.total
        if baseline == 0:
            return 0.0
        return 1.0 - self.partitioned.simulated.total / baseline


class MemoryOptimizationFlow:
    """Runs the clustering + partitioning flow on a data trace.

    Parameters
    ----------
    config:
        Flow configuration (defaults apply when omitted).
    recorder:
        Optional observability recorder.  When enabled it receives a span
        per stage (``profile``, ``cluster``, then ``partition_search`` and
        ``playback`` per variant), per-variant energy counters whose
        components sum *exactly* to the reported totals, and the run
        manifest.  Recording never changes results: the default
        :class:`~repro.obs.recorder.NullRecorder` path is a single flag
        check, and counters are flushed from totals the flow computes
        anyway.
    """

    def __init__(
        self, config: FlowConfig | None = None, recorder: Recorder | None = None
    ) -> None:
        self.config = config if config is not None else FlowConfig()
        self.recorder = recorder

    def build_manifest(self, trace_name: str) -> RunManifest:
        """Provenance manifest for a run of this flow on ``trace_name``."""
        return collect_manifest(
            config_hash=config_fingerprint(self.config.describe()),
            trace=trace_name,
        )

    def run(self, trace: Trace) -> FlowResult:
        """Execute the flow; return the three-way energy comparison.

        ``trace`` may also be a streamed trace
        (:class:`repro.trace.store.StreamedTrace`): profiling and playback
        then run chunk-by-chunk, so a store-backed trace flows end to end
        without ever being resident in memory at once.
        """
        config = self.config
        recorder = self.recorder
        data_trace = trace.data_accesses()
        if not len(data_trace):
            raise ValueError(f"trace {trace.name!r} contains no data accesses")
        manifest = self.build_manifest(trace.name)
        if recorder is not None and recorder.enabled:
            recorder.record_manifest(manifest.to_dict())
        with span(recorder, "profile", events=len(data_trace)):
            profile = AccessProfile(
                data_trace, block_size=config.block_size, recorder=recorder
            )

        with span(recorder, "cluster", strategy=str(config.strategy)):
            identity_layout = IdentityClustering().build_layout(profile)
            clustered_layout = config.make_strategy().build_layout(profile)

        monolithic = self._evaluate(
            "monolithic", identity_layout, profile, data_trace, num_banks=1
        )
        partitioned = self._evaluate("partitioned", identity_layout, profile, data_trace)
        clustered = self._evaluate("clustered", clustered_layout, profile, data_trace)

        return FlowResult(
            trace_name=trace.name,
            config=config,
            profile_summary=profile.summary(),
            monolithic=monolithic,
            partitioned=partitioned,
            clustered=clustered,
            manifest=manifest,
        )

    def _evaluate(
        self,
        label: str,
        layout: BlockLayout,
        profile: AccessProfile,
        data_trace: Trace,
        num_banks: int | None = None,
    ) -> FlowVariant:
        config = self.config
        recorder = self.recorder
        reads, writes = layout.counts_in_order(profile)
        cost_model = PartitionCostModel(
            reads=reads,
            writes=writes,
            block_size=config.block_size,
            sram_model=config.sram_model,
            decoder_model=config.decoder_model,
            round_pow2=config.round_pow2,
        )
        with span(recorder, "partition_search", variant=label):
            if num_banks == 1:
                spec = PartitionSpec(
                    block_size=config.block_size,
                    bank_blocks=(layout.num_blocks,),
                    round_pow2=config.round_pow2,
                )
                result = PartitionResult(
                    spec=spec,
                    predicted_energy=cost_model.partition_cost(spec),
                    num_banks=1,
                )
            else:
                partitioner = config.make_partitioner()
                result = partitioner.partition(cost_model)
        with span(recorder, "playback", variant=label, banks=result.num_banks):
            # A streamed trace remaps lazily, chunk by chunk, keeping the
            # playback memory bound at the chunk size.
            layout_trace = data_trace.map_chunks(layout.remap_columnar)
            simulated = simulate_partition(
                result.spec,
                layout_trace,
                sram_model=config.sram_model,
                decoder_model=config.decoder_model,
                include_leakage=config.include_leakage,
                recorder=recorder,
            )
        if recorder is not None and recorder.enabled:
            # Components in the exact order SimulatedPartitionEnergy.total
            # adds them, so a replayed sum reconciles bit-for-bit.
            recorder.counter(
                STAGE_ENERGY_PJ, simulated.bank_energy, stage=label, component="bank"
            )
            recorder.counter(
                STAGE_ENERGY_PJ, simulated.decoder_energy, stage=label, component="decoder"
            )
            recorder.counter(
                STAGE_ENERGY_PJ, simulated.leakage_energy, stage=label, component="leakage"
            )
            recorder.counter(FLOW_TOTAL_PJ, simulated.total, stage=label)
        return FlowVariant(
            label=label,
            layout=layout,
            spec=result.spec,
            predicted_energy=result.predicted_energy,
            simulated=simulated,
        )
