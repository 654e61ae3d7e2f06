"""Flow adapters: the sweepable entry points of the four benchmark flows.

Each adapter takes a trace plus its config and returns a
JSON-serializable dict of plain builtins — the contract the batch cache
and the golden corpus both rely on: results must survive a round-trip
through canonical JSON and compare ``==`` afterwards.  Each flow declares
its config keys once (see :func:`check_config`), and one check turns a
config mapping into the adapter's arguments or rejects it.

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
from dataclasses import fields
from inspect import Parameter, signature
from pathlib import Path
from typing import Annotated, Literal, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from ..trace.trace import KIND_WRITE, Trace

__all__ = [
    "FLOW_NAMES",
    "check_config",
    "run_flow",
    "trace_to_application",
    "typed_config",
]

#: The sweepable public flows, in benchmark-suite order.
FLOW_NAMES = ("e1_clustering", "e2_compression", "e3_encoding", "e4_reconfig")

#: An ``int`` config key whose value must be positive; :func:`check_config`
#: reads the bound from the adapter's signature.
_POSITIVE = "positive"
PositiveInt = Annotated[int, _POSITIVE]


# -- E1: memory-optimization pipeline -----------------------------------------------


def _run_e1(trace: Trace, *, flow_config) -> dict:
    from ..core.pipeline import MemoryOptimizationFlow

    result = MemoryOptimizationFlow(flow_config).run(trace)
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


def _run_e2(
    trace: Trace,
    *,
    platform: Literal["risc", "vliw"] = "risc",
    codec: Literal["differential", "zero_run", "lzw", "bdi", "none"] = "none",
) -> dict:
    from ..platforms.system import risc_platform, vliw_platform

    factories = {"risc": risc_platform, "vliw": vliw_platform}
    codec_cls = _codec_registry()[codec]
    system = factories[platform](codec_cls() if codec_cls else None)
    report = system.run_traces(trace.data_accesses())
    result = {
        "trace_name": trace.name,
        "platform": platform,
        "codec": codec,
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


def _payloads(trace: Trace) -> list[int]:
    """The payloads ``trace`` carries, in trace order."""
    if trace.values is None or trace.value_mask is None:
        return []
    return trace.values[trace.value_mask].tolist()


def _run_e3(
    trace: Trace,
    *,
    width: PositiveInt = 32,
    include_functional: bool = True,
    train_fraction: float = 0.5,
) -> dict:
    from ..encoding.selector import TransformSelector

    words = _payloads(trace.instruction_accesses()) or _payloads(trace)
    if not words:
        raise ValueError(
            f"trace {trace.name!r} carries no value payloads; the encoding "
            f"flow needs a value stream to select over"
        )
    selector = TransformSelector(
        width=width,
        include_functional=include_functional,
        train_fraction=train_fraction,
    )
    try:
        selection = selector.select(words)
    except ValueError as error:
        raise ValueError(f"trace {trace.name!r}: {error}") from None
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


def _run_e4(
    trace: Trace,
    *,
    scheduler: Literal["naive", "energy"] = "energy",
    window_events: PositiveInt = 4096,
    region_bytes: PositiveInt = 4096,
    num_contexts: PositiveInt = 4,
    l0_size: PositiveInt = 2048,
    context_slots: PositiveInt = 2,
) -> dict:
    from ..reconfig import (
        EnergyAwareScheduler,
        NaiveScheduler,
        ReconfigArchitecture,
        evaluate_schedule,
    )

    schedulers = {"naive": NaiveScheduler, "energy": EnergyAwareScheduler}
    application = trace_to_application(
        trace,
        window_events=window_events,
        region_bytes=region_bytes,
        num_contexts=num_contexts,
    )
    architecture = ReconfigArchitecture(l0_size=l0_size, context_slots=context_slots)
    schedule = schedulers[scheduler]().schedule(application, architecture)
    energy = evaluate_schedule(application, architecture, schedule)
    return {
        "trace_name": trace.name,
        "scheduler": scheduler,
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


def _run_flaky(
    trace: Trace, *, marker_dir: str, fail_times: int = 1, mode: str = "raise"
) -> dict:
    # Fails `fail_times` attempts before succeeding, counting attempts via
    # marker files so the count survives worker-process death.  mode "raise"
    # fails softly inside the worker; mode "exit" kills the worker process
    # outright, exercising the BrokenProcessPool path.
    markers = Path(marker_dir)
    # The marker writes are this flow's entire purpose: they are worker-side
    # filesystem state shared across processes, the one thing a real flow
    # never writes, so the retry tests can watch the runner survive worker
    # failures.  Never dispatched outside tests.
    markers.mkdir(parents=True, exist_ok=True)
    attempt = len(list(markers.glob("attempt-*")))
    (markers / f"attempt-{attempt}-{os.getpid()}").touch()
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


def check_config(flow: str, config: Mapping) -> dict:
    """Check ``config`` against ``flow``'s declared keys; return its arguments.

    Each flow declares its config keys once: ``e1_clustering`` as the
    fields of :class:`~repro.core.pipeline.FlowConfig`, which this builds,
    and the other flows as their adapter's keyword-only parameters, each
    with a type and (except ``_flaky``'s ``marker_dir``) a default.  A
    registry name (the e2 platform and codec, the e4 scheduler) is typed as
    a ``Literal`` of the names its adapter accepts, and a count or size that
    must be positive as :data:`PositiveInt`.  An unknown key, a missing
    required key, a value of the wrong type, an unknown name or a value out
    of its bound raises a ``ValueError`` naming the flow, the key and the
    value, and the accepted keys or names; a float key accepts an int and
    holds it as a float.
    """
    if flow not in _FLOWS:
        raise ValueError(
            f"unknown flow {flow!r}; expected one of {sorted(FLOW_NAMES)}"
        )
    if flow == "e1_clustering":
        from ..core.pipeline import FlowConfig

        _reject_unknown_keys(flow, config, [field.name for field in fields(FlowConfig)])
        try:
            return {"flow_config": FlowConfig(**config)}
        except ValueError as error:
            raise ValueError(f"flow {flow!r}: {error}") from None
    adapter = _FLOWS[flow]
    parameters = {
        name: parameter
        for name, parameter in signature(adapter).parameters.items()
        if parameter.kind is Parameter.KEYWORD_ONLY
    }
    _reject_unknown_keys(flow, config, parameters)
    types = get_type_hints(adapter, include_extras=True)
    arguments = {}
    for name, parameter in parameters.items():
        if name not in config:
            if parameter.default is Parameter.empty:
                raise ValueError(f"flow {flow!r}: config key {name!r} is required")
            continue
        value, expected = config[name], types[name]
        bounds = ()
        if get_origin(expected) is Annotated:
            expected, *bounds = get_args(expected)
        if expected is float and type(value) is int:
            value = float(value)
        if get_origin(expected) is Literal:
            names = get_args(expected)
            if value not in names:
                raise ValueError(
                    f"flow {flow!r}: unknown {name} {value!r} for config key "
                    f"{name!r}; accepted: {', '.join(map(repr, names))}"
                )
        elif type(value) is not expected:
            raise ValueError(
                f"flow {flow!r}: config key {name!r} must be "
                f"{expected.__name__}, got {value!r}"
            )
        if _POSITIVE in bounds and value <= 0:
            raise ValueError(
                f"flow {flow!r}: config key {name!r} must be positive, got {value!r}"
            )
        arguments[name] = value
    return arguments


def typed_config(flow: str, config: Mapping) -> dict:
    """``config``'s keys with the values :func:`check_config` passes on.

    A float key given an int holds the float, so equal configs compare and
    fingerprint alike, and a config already in its declared types is
    returned unchanged.  An invalid config raises as in :func:`check_config`.
    """
    arguments = check_config(flow, config)
    if flow == "e1_clustering":
        return {key: getattr(arguments["flow_config"], key) for key in config}
    return arguments


def _reject_unknown_keys(flow: str, config: Mapping, keys) -> None:
    """Raise a ``ValueError`` for the first key of ``config`` not in ``keys``."""
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ValueError(
            f"flow {flow!r}: unknown config key {unknown[0]!r}; accepted "
            f"keys: {', '.join(sorted(keys))}"
        )


def run_flow(flow: str, trace: Trace, config: Mapping) -> dict:
    """Run ``flow`` on ``trace`` under ``config``; returns a JSON-safe dict.

    ``config`` goes through :func:`check_config` first.  The returned dict
    contains only builtins and is deterministic for a given (flow, trace
    content, config) triple — the property the batch cache's content
    addressing depends on.
    """
    arguments = check_config(flow, config)
    return _FLOWS[flow](trace, **arguments)
