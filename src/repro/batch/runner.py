"""The sweep work queue: fan tasks over processes, cache, retry, merge.

:func:`run_sweep` takes a list of :class:`~repro.batch.spec.SweepTask` and
produces one :class:`TaskOutcome` per task **in submission order**,
regardless of worker count, completion timing, or which tasks hit the
cache.  The invariants, in the order they are enforced:

* **Content-addressed skip** — the parent loads each distinct trace spec
  once, digests it, and looks the (flow, config fingerprint, trace
  digest) key up in the :class:`~repro.batch.cache.ResultCache`.  A hit
  never reaches a worker.
* **Bit-identical merge** — worker and inline payloads and cache records
  are all sorted-keys JSON, so a result is the *same parsed object*
  whether it was computed serially, computed in a worker, or read back
  from cache.  ``jobs=1`` vs ``jobs=N`` vs warm-cache rerun therefore
  merge to ``==``-equal reports, which the batch tests assert.
* **One retry loop** — every ``jobs`` value runs the same wave loop.  A
  wave executes its tasks (inline in this process, in wave order, at
  ``jobs=1``; on a fresh process pool at ``jobs>1``) and merges each
  result or records each failure (an exception in the task, or a worker
  death breaking the pool).  After the wave, a task that has run out of
  ``retries`` extra attempts fails the sweep; otherwise the failed tasks
  form the next wave after one exponentially growing, capped delay.
* **Deterministic sharding** — each outcome records the task's shard
  (pure function of the task fingerprint), so a distributed caller can
  partition the same sweep identically on every host.

Wall-clock readings go through :class:`repro.obs.clock.WallClock` — the
package's single sanctioned clock reader — and only ever describe the
run (span durations, elapsed fields), never steer results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

from ..obs.clock import Clock, WallClock
from ..obs.counters import (
    BATCH_CACHE_HITS,
    BATCH_CACHE_MISSES,
    BATCH_RETRIES,
    BATCH_TASKS,
)
from ..obs.manifest import config_fingerprint
from ..obs.recorder import NullRecorder
from ..obs.shard import WORKER_SHARD_SCHEMA_VERSION, ShardRecorder
from ..obs.spans import span
from ..trace.io import trace_digest
from ..trace.store import StoreError, store_digest
from .cache import CacheEntry, ResultCache, cache_key, shard_path
from .flows import run_flow
from .spec import SweepTask, TraceSpec, shard_of

__all__ = [
    "ShardConfig",
    "SweepEvent",
    "TaskOutcome",
    "SweepReport",
    "run_sweep",
    "sweep_fingerprint",
]


@dataclass(frozen=True)
class ShardConfig:
    """Where and how a worker records its observability shard.

    Crosses the parent→worker pickle boundary with every task, so it holds
    only primitives plus a clock *class* (classes pickle by reference):
    each worker instantiates its own clocks from ``clock_factory``, never
    shares a clock object with the parent.
    """

    root: str
    sweep_id: str
    clock_factory: type = WallClock


@dataclass(frozen=True)
class SweepEvent:
    """One parent-side progress event, emitted as the sweep advances.

    ``kind`` is ``"cache_hit"``, ``"task_done"``, ``"task_failed"``, or
    ``"retry_wave"`` (one per task re-queued for the next wave), and
    ``label`` names the task; the counts are cumulative snapshots, so any
    single event suffices to render a progress line.  This callback surface
    is the seam a future ``repro serve`` subscriber stream plugs into.
    """

    kind: str
    done: int
    failed: int
    cached: int
    total: int
    elapsed_seconds: float
    label: str | None = None


def sweep_fingerprint(tasks) -> str:
    """Deterministic sweep identity: fingerprint of the ordered task specs.

    Pure function of the task list (order included), so rerunning the same
    sweep writes shards into the same content-addressed directory.
    """
    return config_fingerprint(
        {
            "shard_schema": WORKER_SHARD_SCHEMA_VERSION,
            "tasks": [task.spec_fingerprint() for task in tasks],
        }
    )


@dataclass(frozen=True)
class TaskOutcome:
    """The result of one sweep task, with its execution provenance."""

    task: SweepTask
    result: dict
    key: str
    shard: int
    cached: bool
    attempts: int
    elapsed_seconds: float

    def row(self) -> dict:
        """Flat summary row for the CLI results table."""
        return {
            "flow": self.task.flow,
            "trace": self.task.trace.name,
            "config_hash": self.task.config_hash,
            "key": self.key[:12],
            "shard": self.shard,
            "cached": self.cached,
            "attempts": self.attempts,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


@dataclass(frozen=True)
class SweepReport:
    """Merged sweep outcomes (submission order) plus queue statistics."""

    outcomes: tuple
    hits: int
    misses: int
    retries: int
    jobs: int
    elapsed_seconds: float
    #: Deterministic sweep identity (empty when shards were not recorded).
    sweep_id: str = ""

    @property
    def results(self) -> list:
        """The merged results alone, in submission order."""
        return [outcome.result for outcome in self.outcomes]

    def summary(self) -> str:
        """One-line human summary of the queue statistics."""
        return (
            f"{len(self.outcomes)} tasks: {self.hits} cache hits, "
            f"{self.misses} misses, {self.retries} retries "
            f"(jobs={self.jobs}, {self.elapsed_seconds:.2f}s)"
        )


#: Per-process shard-recorder memo: (pid, root, sweep id) → ShardRecorder.
#: One worker process must append every task it executes to one shard file,
#: so the recorder has to outlive individual ``_execute_task`` calls.  The
#: pid in the key defuses fork inheritance — a child never reuses (and
#: never double-writes through) an entry created by its parent.
_RECORDERS: dict = {}


def _worker_shard_recorder(shard: ShardConfig) -> ShardRecorder:
    """This process's shard recorder for ``shard`` (created on first use).

    Idempotent per (pid, root, sweep id): repeated calls in one worker
    return the same recorder, so its shard file accumulates one task block
    per executed task.  The memo is observable only as the shard file each
    worker was going to own anyway — no result state crosses tasks.
    """
    key = (os.getpid(), shard.root, shard.sweep_id)
    recorder = _RECORDERS.get(key)
    if recorder is None:
        worker_id = f"w{os.getpid()}"
        recorder = ShardRecorder(
            shard_path(shard.root, shard.sweep_id, worker_id),
            sweep_id=shard.sweep_id,
            worker_id=worker_id,
            role="worker",
            clock_factory=shard.clock_factory,
        )
        _RECORDERS[key] = recorder  # repro: lint-ignore[PAR001]
    return recorder


#: Per-process trace memo: (pid, trace spec) → loaded Trace.  A sweep fans
#: many configs over few traces, so a worker that just parsed a trace for
#: one task will almost always need the identical trace for its next task.
#: The pid in the key defuses fork inheritance; the cap bounds resident
#: traces so a long heterogeneous sweep cannot accumulate every input.
_TRACE_MEMO: dict = {}

#: Maximum distinct (pid, spec) entries held before the memo is dropped.
_TRACE_MEMO_CAP = 8


def _load_task_trace(spec: TraceSpec, store_map: dict | None = None):
    """Load (or reuse) the trace for ``spec`` in this process.

    Loads are memoized per (pid, spec): a 16-task sweep over one trace
    parses it once per process, not once per task.  When ``store_map``
    offers a packed spill for the spec, the trace is read from the store
    (mmap + one O(n) materialization — no re-parse of the original recipe);
    a store that fails verification is treated as a cache miss and the
    spec's own recipe re-derives the trace, so corruption can never
    produce wrong results.

    The memo is deterministic shared state: every process computes the
    identical trace from the identical spec, so reuse is observable only
    as saved parse time.
    """
    key = (os.getpid(), spec)
    trace = _TRACE_MEMO.get(key)
    if trace is not None:
        return trace
    store_path = (store_map or {}).get(spec)
    if store_path is not None:
        try:
            trace = TraceSpec.store(store_path).load()
        except StoreError:
            pass  # Corrupt spill == cache miss: fall through to the recipe.
    if trace is None:
        trace = spec.load()
    if len(_TRACE_MEMO) >= _TRACE_MEMO_CAP:
        _TRACE_MEMO.clear()  # repro: lint-ignore[PAR001]
    _TRACE_MEMO[key] = trace  # repro: lint-ignore[PAR001]
    return trace


def _execute_task(
    task: SweepTask,
    shard: ShardConfig | None = None,
    store_map: dict | None = None,
) -> str:
    """Worker entry point: run one task and return its result as canonical JSON.

    Runs in a worker process, so it rebuilds the trace from the task's
    spec (via the per-process memo in :func:`_load_task_trace`, reading
    from a packed store when ``store_map`` offers one) and returns *text*
    — the parent parses it, which keeps the pickled payload small and the
    normalization single-sourced.

    With a :class:`ShardConfig`, the task runs instrumented: its spans and
    counters land in this worker's shard as a self-contained task block
    (fresh clock, restarted span ids — see
    :meth:`repro.obs.shard.ShardRecorder.begin_task`), framed so the
    merger can reassemble the sweep regardless of which worker ran what.
    """
    if shard is None:
        trace = _load_task_trace(task.trace, store_map)
        result = run_flow(task.flow, trace, task.config_dict, recorder=None)
        return json.dumps(result, sort_keys=True)
    recorder = _worker_shard_recorder(shard)
    recorder.begin_task(
        task.spec_fingerprint(), label=task.label(), flow=task.flow
    )
    try:
        with span(recorder, "sweep.task", label=task.label(), flow=task.flow):
            trace = _load_task_trace(task.trace, store_map)
            result = run_flow(task.flow, trace, task.config_dict, recorder=recorder)
    except BaseException as error:
        recorder.end_task(status="error", error=type(error).__name__)
        raise
    recorder.end_task()
    return json.dumps(result, sort_keys=True)


@dataclass
class _Pending:
    """Book-keeping for one not-yet-merged task."""

    index: int
    task: SweepTask
    key: str
    shard: int
    attempts: int = 0
    started_seconds: float = 0.0
    error: Exception | None = None


def run_sweep(
    tasks,
    jobs: int = 1,
    cache: ResultCache | None = None,
    recorder=None,
    retries: int = 2,
    backoff_seconds: float = 0.05,
    max_backoff_seconds: float = 1.0,
    clock: Clock | None = None,
    shard_dir=None,
    shard_clock: type | None = None,
    on_event=None,
) -> SweepReport:
    """Run every task, via cache or the retry-wave loop, and merge.

    Parameters
    ----------
    tasks:
        The sweep, in the order results should be merged.
    jobs:
        ``1`` runs each wave's tasks inline in this process, in wave order
        (no pool, no pickling); ``>1`` fans each wave over a fresh
        :class:`~concurrent.futures.ProcessPoolExecutor`.
    cache:
        Optional :class:`~repro.batch.cache.ResultCache`; hits skip
        execution entirely and fresh results are stored back.
    recorder:
        Optional obs recorder: gets a ``sweep`` span, per-task spans, and
        the ``batch.*`` counters.
    retries:
        Extra attempts per failing task.  A failed attempt is retried in
        the next wave; a task still failing after ``retries`` retries
        fails the sweep once its wave has finished.
    backoff_seconds / max_backoff_seconds:
        Delay before retry wave *n* is ``backoff_seconds * 2**(n-1)``,
        capped at ``max_backoff_seconds``.
    clock:
        Time source for elapsed fields (injectable for tests); defaults
        to the sanctioned :class:`~repro.obs.clock.WallClock`.
    shard_dir:
        Observability shard root.  When set, every worker records its
        tasks' spans and counters into a per-worker JSONL shard under
        ``shard_dir/<sweep_id[:2]>/<sweep_id>/``, and the parent records a
        ``parent`` shard of task lifecycle events (submitted / cache_hit /
        merged / failed / retry) — the inputs :mod:`repro.obs.merge`
        reassembles into one canonical timeline.  ``None`` (the default)
        records nothing and leaves the sweep byte-identical to before.
    shard_clock:
        Clock *class* used for shard timing (default
        :class:`~repro.obs.clock.WallClock`); inject
        :class:`~repro.obs.clock.TickClock` for deterministic shards.
    on_event:
        Optional callable receiving a :class:`SweepEvent` per completion
        (cache hit, task done, task failed, retry wave) — the feed for
        ``repro sweep --progress`` and future subscriber streams.
    """
    tasks = list(tasks)
    if jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    clock = clock or WallClock()
    sweep_started = clock.now_seconds()

    shard_config: ShardConfig | None = None
    parent_shard: ShardRecorder | None = None
    sweep_id = ""
    if shard_dir is not None:
        sweep_id = sweep_fingerprint(tasks)
        factory = shard_clock if shard_clock is not None else WallClock
        shard_config = ShardConfig(
            root=str(shard_dir), sweep_id=sweep_id, clock_factory=factory
        )
        parent_shard = ShardRecorder(
            shard_path(shard_dir, sweep_id, "parent"),
            sweep_id=sweep_id,
            worker_id="parent",
            role="parent",
            clock_factory=factory,
        )

    outcomes: list = [None] * len(tasks)
    hits = misses = retry_count = 0
    done_count = fail_count = 0

    def _notify(kind: str, label: str | None = None) -> None:
        if on_event is not None:
            on_event(
                SweepEvent(
                    kind=kind,
                    done=done_count,
                    failed=fail_count,
                    cached=hits,
                    total=len(tasks),
                    elapsed_seconds=clock.now_seconds() - sweep_started,
                    label=label,
                )
            )

    # The parent shard is flushed even when the sweep raises (exhausted
    # retries), so a failed run still leaves its lifecycle evidence.
    closer = parent_shard if parent_shard is not None else NullRecorder()
    with closer, span(recorder, "sweep", tasks=len(tasks), jobs=jobs):
        # Resolve every task's cache key up front: load each distinct trace
        # spec once (memoized), digest it, and satisfy what we can from cache.
        # Store-backed specs are digested from their header alone — no event
        # is materialized for them parent-side.
        digests: dict = {}
        store_map: dict = {}
        pending: list = []
        for index, task in enumerate(tasks):
            if task.trace not in digests:
                if task.trace.kind == "store":
                    digests[task.trace] = store_digest(task.trace.name)
                else:
                    digests[task.trace] = trace_digest(_load_task_trace(task.trace))
            key = cache_key(task.flow, task.config_hash, digests[task.trace])
            shard = shard_of(task.spec_fingerprint(), max(jobs, 1))
            if recorder is not None:
                recorder.counter(BATCH_TASKS, 1, flow=task.flow)
            entry = cache.load(key) if cache is not None else None
            if entry is not None:
                hits += 1
                if recorder is not None:
                    recorder.counter(BATCH_CACHE_HITS, 1, flow=task.flow)
                outcomes[index] = TaskOutcome(
                    task=task,
                    result=entry.result,
                    key=key,
                    shard=shard,
                    cached=True,
                    attempts=0,
                    elapsed_seconds=0.0,
                )
                if parent_shard is not None:
                    parent_shard.task_event(
                        "cache_hit", task.spec_fingerprint(), label=task.label()
                    )
                _notify("cache_hit", task.label())
            else:
                misses += 1
                if recorder is not None:
                    recorder.counter(BATCH_CACHE_MISSES, 1, flow=task.flow)
                pending.append(_Pending(index=index, task=task, key=key, shard=shard))

        # Spill each distinct spec that still has work into the cache's
        # trace store: workers then mmap packed columns (keyed by the same
        # content digest as the results) instead of re-running the recipe.
        # Specs already backed by a store need no spill.
        if cache is not None:
            for item in pending:
                spec = item.task.trace
                if spec.kind == "store" or spec in store_map:
                    continue
                store_map[spec] = str(
                    cache.pack_trace(_load_task_trace(spec), digests[spec])
                )

        def merge(item: _Pending, payload: str) -> None:
            nonlocal done_count
            result = json.loads(payload)
            if cache is not None:
                cache.store(
                    CacheEntry(
                        key=item.key,
                        flow=item.task.flow,
                        config_hash=item.task.config_hash,
                        trace_digest=digests[item.task.trace],
                        result=result,
                    )
                )
            elapsed_task_seconds = clock.now_seconds() - item.started_seconds
            outcomes[item.index] = TaskOutcome(
                task=item.task,
                result=result,
                key=item.key,
                shard=item.shard,
                cached=False,
                attempts=item.attempts,
                elapsed_seconds=elapsed_task_seconds,
            )
            done_count += 1
            if parent_shard is not None:
                parent_shard.task_event(
                    "merged",
                    item.task.spec_fingerprint(),
                    label=item.task.label(),
                    attempt=item.attempts,
                    elapsed_seconds=elapsed_task_seconds,
                )
            _notify("task_done", item.task.label())

        def submitted(item: _Pending) -> None:
            item.attempts += 1
            item.started_seconds = clock.now_seconds()
            if parent_shard is not None:
                parent_shard.task_event(
                    "submitted",
                    item.task.spec_fingerprint(),
                    label=item.task.label(),
                    attempt=item.attempts,
                )

        wave, wave_number = pending, 0
        while wave:
            failed: list = []
            for item, outcome in _run_wave(
                wave, jobs, shard_config, store_map, submitted
            ):
                try:
                    with span(
                        recorder,
                        "sweep.task",
                        label=item.task.label(),
                        shard=item.shard,
                        attempt=item.attempts,
                    ):
                        merge(item, outcome())
                except Exception as error:  # noqa: BLE001 - retried below
                    item.error = error
                    failed.append(item)
                    fail_count += 1
                    if parent_shard is not None:
                        parent_shard.task_event(
                            "failed",
                            item.task.spec_fingerprint(),
                            label=item.task.label(),
                            attempt=item.attempts,
                            error=type(error).__name__,
                        )
                    _notify("task_failed", item.task.label())
            exhausted = [item for item in failed if item.attempts > retries]
            if exhausted:
                worst = exhausted[0]
                raise RuntimeError(
                    f"sweep task {worst.task.label()} failed after "
                    f"{worst.attempts} attempts ({len(exhausted)} of "
                    f"{len(tasks)} tasks exhausted retries)"
                ) from worst.error
            if failed:
                wave_number += 1
                retry_count += len(failed)
                for item in failed:
                    if recorder is not None:
                        recorder.counter(BATCH_RETRIES, 1, flow=item.task.flow)
                    if parent_shard is not None:
                        parent_shard.task_event(
                            "retry",
                            item.task.spec_fingerprint(),
                            label=item.task.label(),
                            attempt=item.attempts,
                            wave=wave_number,
                        )
                    _notify("retry_wave", item.task.label())
                _sleep_backoff(wave_number, backoff_seconds, max_backoff_seconds)
            wave = failed

    return SweepReport(
        outcomes=tuple(outcomes),
        hits=hits,
        misses=misses,
        retries=retry_count,
        jobs=jobs,
        elapsed_seconds=clock.now_seconds() - sweep_started,
        sweep_id=sweep_id,
    )


def _run_wave(wave, jobs, shard, store_map, submitted):
    """Execute one retry wave, yielding ``(item, outcome)`` per task.

    ``outcome()`` returns the task's canonical-JSON payload or raises the
    attempt's failure; ``submitted(item)`` is called as each attempt
    starts.  This generator is the only code that decides how a wave runs:

    * ``jobs=1`` — each task runs inline in this process, in wave order,
      when its ``outcome`` is called: no pool, no pickling, and the
      per-process trace memo is the parent's own.
    * ``jobs>1`` — the whole wave goes to a fresh pool, and pairs come
      back in completion order.  A worker death breaks the pool, and every
      task still in flight then comes back with an ``outcome`` that raises
      :class:`~concurrent.futures.process.BrokenProcessPool`; the next wave
      gets a new pool.  Recomputation is deterministic, so a retried task
      can waste work but never change an answer.
    """
    if jobs == 1:
        for item in wave:
            submitted(item)
            yield item, partial(_execute_task, item.task, shard, store_map)
        return
    with ProcessPoolExecutor(max_workers=jobs, mp_context=_pool_context()) as pool:
        futures = {}
        for item in wave:
            submitted(item)
            futures[pool.submit(_execute_task, item.task, shard, store_map)] = item
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                yield futures[future], future.result


def _pool_context():
    """Multiprocessing context for worker pools: ``fork`` where available.

    Fork keeps worker start-up cheap (no re-import of numpy and the repro
    package per worker) and is available on every platform CI runs on;
    elsewhere the platform default is used.  Result content is unaffected
    either way — workers return canonical JSON text.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _sleep_backoff(wave: int, base_seconds: float, cap_seconds: float) -> None:
    """Sleep the capped exponential delay before retry wave ``wave`` (1-based)."""
    delay = min(base_seconds * (2 ** (wave - 1)), cap_seconds)
    if delay > 0:
        time.sleep(delay)
