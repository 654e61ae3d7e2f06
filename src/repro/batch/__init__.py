"""Parallel batch sweeps with content-addressed result caching.

The ``repro.batch`` technique layer turns "run flow F on trace T under
config C" into a first-class, cacheable unit of work:

* :mod:`~repro.batch.spec` — picklable task descriptions
  (:class:`TraceSpec`, :class:`SweepTask`) and deterministic sharding;
* :mod:`~repro.batch.cache` — the on-disk :class:`ResultCache`, keyed by
  flow + config fingerprint + trace content digest;
* :mod:`~repro.batch.flows` — adapters exposing the E1–E4 benchmark
  flows behind one JSON-result contract;
* :mod:`~repro.batch.runner` — :func:`run_sweep`, the work queue that
  fans misses over worker processes, retries crashes with capped
  backoff, and merges results bit-identically in submission order.

The CLI front-end is ``repro sweep``.
"""

from .cache import CacheEntry, ResultCache, cache_key, shard_path, sweep_obs_dir
from .flows import FLOW_NAMES, check_config, run_flow, trace_to_application
from .runner import (
    ShardConfig,
    SweepEvent,
    SweepReport,
    TaskOutcome,
    run_sweep,
    sweep_fingerprint,
)
from .spec import (
    SweepTask,
    TraceSpec,
    assign_shards,
    parse_assignments,
    parse_scalar,
    shard_of,
)

__all__ = [
    "TraceSpec",
    "SweepTask",
    "shard_of",
    "assign_shards",
    "parse_assignments",
    "parse_scalar",
    "cache_key",
    "CacheEntry",
    "ResultCache",
    "FLOW_NAMES",
    "check_config",
    "run_flow",
    "trace_to_application",
    "run_sweep",
    "SweepReport",
    "TaskOutcome",
    "ShardConfig",
    "SweepEvent",
    "sweep_fingerprint",
    "sweep_obs_dir",
    "shard_path",
]
