"""High-level convenience API.

Most users only need two calls::

    from repro import optimize_memory_layout, trace_from_kernel

    trace = trace_from_kernel("matmul")
    result = optimize_memory_layout(trace, block_size=32, max_banks=8)
    print(f"clustering saves {result.saving_vs_partitioned:.1%}")
"""

from __future__ import annotations

from ..isa.cpu import CPU
from ..isa.programs import load_kernel
from ..trace.trace import Trace
from .pipeline import FlowConfig, FlowResult, MemoryOptimizationFlow

__all__ = ["optimize_memory_layout", "trace_from_kernel"]


def optimize_memory_layout(trace: Trace, **config_kwargs) -> FlowResult:
    """Run the full clustering + partitioning flow on a data trace.

    Keyword arguments configure :class:`~repro.core.pipeline.FlowConfig`
    (``block_size``, ``max_banks``, ``strategy``, ``partitioner``, ...).
    The active recorder (see :func:`repro.obs.recording`) gets the run's
    spans, counters and manifest without changing its results.
    """
    return MemoryOptimizationFlow(FlowConfig(**config_kwargs)).run(trace)


def trace_from_kernel(name: str, memory_size: int = 1 << 20) -> Trace:
    """Run a named ISS kernel and return its data-access trace."""
    program = load_kernel(name)
    result = CPU(memory_size=memory_size).run(program)
    return result.data_trace
