"""repro — energy-efficient embedded memory toolkit (DATE 2003 reproduction).

This package reproduces the Session 1B "Energy-Efficient Memory Systems"
techniques of the DATE 2003 proceedings, together with every substrate they
need, in pure Python:

* **address clustering + memory partitioning** (:mod:`repro.core`,
  :mod:`repro.partition`) — experiment E1;
* **energy-driven cache-line compression** (:mod:`repro.compress`,
  :mod:`repro.platforms`) — experiment E2;
* **application-specific instruction-bus encoding** (:mod:`repro.encoding`)
  — experiment E3;
* **data scheduling for multi-context reconfigurable fabrics**
  (:mod:`repro.reconfig`) — experiment E4;
* substrates: trace infrastructure (:mod:`repro.trace`), memory/bus energy
  models (:mod:`repro.memory`, :mod:`repro.bus`), a cache simulator
  (:mod:`repro.cache`), and a full instruction-set simulator with assembler
  and kernel library (:mod:`repro.isa`).

Quickstart::

    from repro import optimize_memory_layout, trace_from_kernel

    trace = trace_from_kernel("table_lookup")
    result = optimize_memory_layout(trace, block_size=16, max_banks=4)
    print(f"address clustering saves {result.saving_vs_partitioned:.1%}")
"""

from .core.api import optimize_memory_layout, trace_from_kernel
from .core.pipeline import FlowConfig, FlowResult, MemoryOptimizationFlow
from .obs import JsonlRecorder, NullRecorder, Recorder, RunManifest, read_log, recording

__version__ = "1.0.0"

__all__ = [
    "optimize_memory_layout",
    "trace_from_kernel",
    "FlowConfig",
    "FlowResult",
    "MemoryOptimizationFlow",
    "Recorder",
    "NullRecorder",
    "JsonlRecorder",
    "recording",
    "RunManifest",
    "read_log",
    "__version__",
]
