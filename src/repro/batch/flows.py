"""Flow adapters: the sweepable entry points of the four benchmark flows.

Each adapter takes ``(trace, config, recorder)`` and returns a
JSON-serializable dict of plain builtins — the contract the batch cache
and the golden corpus both rely on: results must survive a round-trip
through canonical JSON and compare ``==`` afterwards.

The four public flows mirror the E1–E4 benchmark suites:

* ``e1_clustering`` — the core memory-optimization pipeline
  (:class:`repro.core.pipeline.MemoryOptimizationFlow`);
* ``e2_compression`` — a platform run with an off-chip line codec
  (:mod:`repro.platforms`);
* ``e3_encoding`` — bus-encoding transform selection over the trace's
  value stream (:mod:`repro.encoding`);
* ``e4_reconfig`` — reconfigurable-fabric scheduling over an application
  derived from the trace (:mod:`repro.reconfig`), via
  :func:`trace_to_application`.

A private ``_flaky`` flow exists purely for the retry machinery's tests:
it fails a configurable number of times (softly or by killing the worker)
before succeeding, coordinating attempts through marker files.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..trace.trace import Trace

__all__ = [
    "FLOW_NAMES",
    "run_flow",
    "trace_to_application",
]

#: The sweepable public flows, in benchmark-suite order.
FLOW_NAMES = ("e1_clustering", "e2_compression", "e3_encoding", "e4_reconfig")


def _config_value(config: dict, key: str, default):
    """``config[key]`` (``default`` when absent), typed like ``default``.

    A value of another type raises a ``ValueError`` naming the key and the
    value instead of being cast, so ``width=32.9`` or
    ``include_functional=no`` fails rather than running as ``32`` or
    ``True``.  A float key accepts an int.
    """
    value = config.get(key, default)
    if type(value) is type(default):
        return value
    if type(default) is float and type(value) is int:
        return float(value)
    raise ValueError(
        f"config key {key!r} must be {type(default).__name__}, got {value!r}"
    )


# -- E1: memory-optimization pipeline -----------------------------------------------


def _run_e1(trace: Trace, config: dict, recorder) -> dict:
    from ..core.pipeline import FlowConfig, MemoryOptimizationFlow

    flow_config = FlowConfig(**config)
    result = MemoryOptimizationFlow(flow_config, recorder=recorder).run(trace)
    return result.to_dict()


# -- E2: compressed off-chip traffic on a platform ----------------------------------


def _codec_registry() -> dict:
    from ..compress import BDICodec, DifferentialCodec, LZWCodec, ZeroRunCodec

    return {
        "differential": DifferentialCodec,
        "zero_run": ZeroRunCodec,
        "lzw": LZWCodec,
        "bdi": BDICodec,
        "none": None,
    }


def _run_e2(trace: Trace, config: dict, recorder) -> dict:
    from ..platforms.system import risc_platform, vliw_platform

    platform_name = config.get("platform", "risc")
    factories = {"risc": risc_platform, "vliw": vliw_platform}
    if platform_name not in factories:
        raise ValueError(
            f"unknown platform {platform_name!r}; expected one of "
            f"{sorted(factories)}"
        )
    codec_name = config.get("codec", "none")
    codecs = _codec_registry()
    if codec_name not in codecs:
        raise ValueError(
            f"unknown codec {codec_name!r}; expected one of {sorted(codecs)}"
        )
    codec_cls = codecs[codec_name]
    platform = factories[platform_name](codec_cls() if codec_cls else None)
    report = platform.run_traces(trace.data_accesses(), recorder=recorder)
    result = {
        "trace_name": trace.name,
        "platform": platform_name,
        "codec": codec_name,
        "energy_breakdown": {
            key: float(value) for key, value in report.breakdown.as_dict().items()
        },
        "energy_total": float(report.breakdown.total),
        "offchip_bytes": int(report.offchip_bytes),
        "cycles": int(report.cycles),
        "decompression_cycles": int(report.decompression_cycles),
    }
    if report.unit_stats is not None:
        result["compression_mean_ratio"] = float(report.unit_stats.mean_ratio)
    return result


# -- E3: bus-encoding transform selection -------------------------------------------


def _run_e3(trace: Trace, config: dict, recorder) -> dict:
    from ..encoding.selector import TransformSelector

    instruction_words = [
        event.value
        for event in trace.instruction_accesses()
        if event.value is not None
    ]
    words = instruction_words or [
        event.value for event in trace if event.value is not None
    ]
    if not words:
        raise ValueError(
            f"trace {trace.name!r} carries no value payloads; the encoding "
            f"flow needs a value stream to select over"
        )
    selector = TransformSelector(
        width=_config_value(config, "width", 32),
        include_functional=_config_value(config, "include_functional", True),
        train_fraction=_config_value(config, "train_fraction", 0.5),
    )
    selection = selector.select(words)
    best = selection.best_report
    return {
        "trace_name": trace.name,
        "words": int(best.words),
        "best_encoder": best.encoder_name,
        "raw_transitions": int(best.raw_transitions),
        "encoded_transitions": int(best.encoded_transitions),
        "reduction": float(best.reduction),
        "scoreboard": {
            report.encoder_name: int(report.total_transitions)
            for report in selection.scoreboard
        },
    }


# -- E4: reconfigurable-fabric scheduling -------------------------------------------


def trace_to_application(
    trace: Trace,
    window_events: int = 4096,
    region_bytes: int = 4096,
    num_contexts: int = 4,
):
    """Derive a reconfig :class:`~repro.reconfig.Application` from a trace.

    The data trace is cut into windows of ``window_events`` accesses; each
    window becomes a kernel.  Within a window, addresses are bucketed into
    ``region_bytes``-sized regions, and each touched region becomes a
    :class:`~repro.reconfig.DataSet` whose size is the region footprint
    and whose read/write counts are the window's actual access counts.
    Region names are shared across kernels (they are address-derived), so
    kernels touching the same region genuinely share data — which is what
    gives the energy-aware scheduler reuse to exploit.  A kernel's context
    is its dominant region index modulo ``num_contexts``.

    The data trace is windowed as one fold over its columnar chunks
    (``chunks()``): region counts accumulate per window-aligned sub-slice,
    and a window straddling a chunk boundary merges its parts before
    emission.  Because each kernel's data sets are emitted from a *sorted*
    region table, the merge order is immaterial and the derived application
    is independent of the chunking.
    """
    from ..reconfig import Application, DataSet, Kernel
    from ..trace.columnar import KIND_WRITE

    if window_events <= 0:
        raise ValueError(f"window_events must be positive, got {window_events}")
    if region_bytes <= 0:
        raise ValueError(f"region_bytes must be positive, got {region_bytes}")
    if num_contexts <= 0:
        raise ValueError(f"num_contexts must be positive, got {num_contexts}")

    def emit_kernel(index: int, regions: dict):
        # One window's kernel: sorted region table -> data sets; dominant
        # region (ties to the lowest index) picks the context.
        data_sets = tuple(
            DataSet(
                name=f"region_{region:#x}",
                size=region_bytes,
                reads=reads,
                writes=writes,
            )
            for region, (reads, writes) in sorted(regions.items())
        )
        dominant = max(sorted(regions), key=lambda region: sum(regions[region]))
        return Kernel(
            name=f"window_{index}",
            context=int(dominant) % num_contexts,
            data_sets=data_sets,
        )

    data = trace.data_accesses()
    kernels = []
    regions: dict = {}
    fill = 0
    window_index = 0
    for chunk in data.chunks():
        if not len(chunk):
            continue
        region_ids = chunk.addresses // region_bytes
        write_mask = chunk.kinds == KIND_WRITE
        offset = 0
        while offset < len(chunk):
            take = min(window_events - fill, len(chunk) - offset)
            sub = slice(offset, offset + take)
            unique, inverse = np.unique(region_ids[sub], return_inverse=True)
            sub_writes = np.bincount(inverse[write_mask[sub]], minlength=len(unique))
            sub_totals = np.bincount(inverse, minlength=len(unique))
            sub_reads = sub_totals - sub_writes
            for region, region_reads, region_writes in zip(
                unique.tolist(), sub_reads.tolist(), sub_writes.tolist()
            ):
                reads, writes = regions.get(region, (0, 0))
                regions[region] = (reads + region_reads, writes + region_writes)
            fill += take
            offset += take
            if fill == window_events:
                kernels.append(emit_kernel(window_index, regions))
                window_index += 1
                regions = {}
                fill = 0
    if regions:
        kernels.append(emit_kernel(window_index, regions))
    if not kernels:
        raise ValueError(
            f"trace {trace.name!r} has no data accesses; cannot derive an "
            f"application for the reconfig flow"
        )
    return Application(name=trace.name, kernels=tuple(kernels))


def _run_e4(trace: Trace, config: dict, recorder) -> dict:
    from ..reconfig import (
        EnergyAwareScheduler,
        NaiveScheduler,
        ReconfigArchitecture,
        evaluate_schedule,
    )

    scheduler_name = config.get("scheduler", "energy")
    schedulers = {"naive": NaiveScheduler, "energy": EnergyAwareScheduler}
    if scheduler_name not in schedulers:
        raise ValueError(
            f"unknown scheduler {scheduler_name!r}; expected one of "
            f"{sorted(schedulers)}"
        )
    application = trace_to_application(
        trace,
        window_events=_config_value(config, "window_events", 4096),
        region_bytes=_config_value(config, "region_bytes", 4096),
        num_contexts=_config_value(config, "num_contexts", 4),
    )
    architecture = ReconfigArchitecture(
        l0_size=_config_value(config, "l0_size", 2048),
        context_slots=_config_value(config, "context_slots", 2),
    )
    schedule = schedulers[scheduler_name]().schedule(
        application, architecture, recorder=recorder
    )
    energy = evaluate_schedule(application, architecture, schedule)
    return {
        "trace_name": trace.name,
        "scheduler": scheduler_name,
        "kernels": len(application.kernels),
        "order": [int(index) for index in schedule.order],
        "l0_placements": [
            sorted(str(name) for name in names)
            for names in schedule.l0_placements
        ],
        "access_energy": float(energy.access_energy),
        "transfer_energy": float(energy.transfer_energy),
        "context_energy": float(energy.context_energy),
        "context_loads": int(energy.context_loads),
        "l0_hits": int(energy.l0_hits),
        "total_energy": float(energy.total),
    }


# -- fault-injection flow for retry tests -------------------------------------------


def _run_flaky(trace: Trace, config: dict, recorder) -> dict:
    # Fails `fail_times` attempts before succeeding, counting attempts via
    # marker files so the count survives worker-process death.  mode "raise"
    # fails softly inside the worker; mode "exit" kills the worker process
    # outright, exercising the BrokenProcessPool path.
    marker_dir = Path(config["marker_dir"])
    fail_times = _config_value(config, "fail_times", 1)
    mode = config.get("mode", "raise")
    # The marker writes are this flow's entire purpose: it *injects* the
    # cross-process filesystem race PAR003 exists to catch, so the retry
    # tests can watch the runner survive it.  Never dispatched outside tests.
    marker_dir.mkdir(parents=True, exist_ok=True)  # repro: lint-ignore[PAR003]
    attempt = len(list(marker_dir.glob("attempt-*")))
    (marker_dir / f"attempt-{attempt}-{os.getpid()}").touch()  # repro: lint-ignore[PAR003]
    if attempt < fail_times:
        if mode == "exit":
            os._exit(3)
        raise RuntimeError(
            f"flaky flow failing attempt {attempt} of {fail_times} (as configured)"
        )
    return {"trace_name": trace.name, "events": len(trace), "attempts": attempt + 1}


_FLOWS = {
    "e1_clustering": _run_e1,
    "e2_compression": _run_e2,
    "e3_encoding": _run_e3,
    "e4_reconfig": _run_e4,
    "_flaky": _run_flaky,
}


def run_flow(flow: str, trace: Trace, config: dict, recorder=None) -> dict:
    """Run ``flow`` on ``trace`` under ``config``; returns a JSON-safe dict.

    The returned dict contains only builtins and is deterministic for a
    given (flow, trace content, config) triple — the property the batch
    cache's content addressing depends on.
    """
    if flow not in _FLOWS:
        raise ValueError(
            f"unknown flow {flow!r}; expected one of {sorted(FLOW_NAMES)}"
        )
    return _FLOWS[flow](trace, dict(config), recorder)
