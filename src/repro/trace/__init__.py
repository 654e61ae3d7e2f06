"""Trace infrastructure: events, containers, profiles, generators, file I/O."""

from .events import AccessKind, AddressSpace, MemoryAccess
from .io import load_npz, load_text, save_npz, save_text, trace_digest
from .store import (
    DEFAULT_CHUNK_EVENTS,
    STORE_SUFFIX,
    TRACE_STORE_SCHEMA_VERSION,
    StoreError,
    StreamedTrace,
    load_store,
    open_store,
    save_store,
    store_digest,
    verify_store,
)
from .phases import Phase, PhaseDetector, PhaseSegmentation
from .profile import AccessProfile, BlockStats, reuse_distances
from .sampling import IntervalSampler, SystematicSampler, count_error, scale_counts
from .stats import (
    address_entropy,
    dominant_stride,
    region_stickiness,
    region_transition_matrix,
    stride_histogram,
)
from .synthetic import (
    HotColdGenerator,
    ScatteredHotGenerator,
    LoopNestGenerator,
    MarkovRegionGenerator,
    StridedSweepGenerator,
    ValueTraceGenerator,
)
from .trace import Trace

__all__ = [
    "AccessKind",
    "AddressSpace",
    "MemoryAccess",
    "Trace",
    "StreamedTrace",
    "StoreError",
    "TRACE_STORE_SCHEMA_VERSION",
    "STORE_SUFFIX",
    "DEFAULT_CHUNK_EVENTS",
    "save_store",
    "load_store",
    "open_store",
    "store_digest",
    "verify_store",
    "AccessProfile",
    "BlockStats",
    "reuse_distances",
    "Phase",
    "PhaseDetector",
    "PhaseSegmentation",
    "SystematicSampler",
    "IntervalSampler",
    "scale_counts",
    "count_error",
    "stride_histogram",
    "dominant_stride",
    "address_entropy",
    "region_transition_matrix",
    "region_stickiness",
    "StridedSweepGenerator",
    "HotColdGenerator",
    "LoopNestGenerator",
    "MarkovRegionGenerator",
    "ScatteredHotGenerator",
    "ValueTraceGenerator",
    "save_text",
    "load_text",
    "save_npz",
    "load_npz",
    "trace_digest",
]
