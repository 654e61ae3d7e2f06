"""NullRecorder overhead gate: instrumentation must be free when off.

The observability contract (ARCHITECTURE.md "Observability") is that the
default no-recorder path costs one flag check per playback call.  This
benchmark pins it: a 1M-event vectorized play with an explicit
:class:`~repro.obs.NullRecorder` may take at most 3% (plus a 0.5 ms floor
against timer noise) longer than with ``recorder=None``.  Both run on the
same trace in the same process, in pairs that alternate which side runs
first, and the gate reads the median of the per-pair ratios — a
machine-independent statistic, unlike raw wall-clock gates.
"""

from __future__ import annotations

import statistics
import time

from repro.memory import PartitionedMemory
from repro.obs import JsonlRecorder, NullRecorder

from test_columnar_engine import BANK_SIZES, million_event_trace

OVERHEAD_BOUND_RATIO = 0.03
NOISE_FLOOR_SECONDS = 5e-4
#: Bare/NullRecorder play pairs.  The median ratio needs this many: run bare
#: against bare on a 2-vCPU VM it read at most 1.006 over 11 pairs, but up
#: to 1.07 over 5 or 7, too close to the bound.
PAIRS = 11

# Worker-shard recording on a full sweep: buffered in-memory lines plus one
# suffix-append publish per task.  The gate is the recording cost per task:
# the median over rounds of (shard sweep - bare sweep), divided by the task
# count, which a faster flow cannot move.  Rounds alternate which side runs
# first and an untimed warmup absorbs one-time import costs, so slow
# machine drift (thermal, background load) cancels instead of biasing one
# side.  About 58 shard lines per task cost 1.1-2.8 ms per task on a 2-vCPU
# VM; the bound leaves headroom for a slower runner, not for a recorder
# that costs twice as much.
SHARD_TASK_BOUND_SECONDS = 5e-3
SHARD_ROUNDS = 6


def timed_play_pairs() -> dict:
    """Bare and NullRecorder plays in pairs that alternate which runs first."""
    columnar = million_event_trace()
    memory = PartitionedMemory(BANK_SIZES)
    null_recorder = NullRecorder()

    bare_seconds = []
    null_seconds = []
    totals = set()

    def timed(recorder, seconds: list) -> None:
        start_s = time.perf_counter()
        totals.add(memory.play(columnar, recorder=recorder).total)
        seconds.append(time.perf_counter() - start_s)

    for index in range(PAIRS):
        sides = [(None, bare_seconds), (null_recorder, null_seconds)]
        if index % 2:
            sides.reverse()
        for recorder, seconds in sides:
            timed(recorder, seconds)

    return {
        "bare_s": statistics.median(bare_seconds),
        "ratio": statistics.median(
            null / bare for bare, null in zip(bare_seconds, null_seconds)
        ),
        "distinct_totals": len(totals),
    }


def test_null_recorder_paired_overhead(benchmark):
    result = benchmark.pedantic(timed_play_pairs, rounds=1, iterations=1)
    # Recording (or not) never changes the energy result.
    assert result["distinct_totals"] == 1
    # The <3% acceptance gate, with an absolute floor against timer noise.
    bound = 1 + OVERHEAD_BOUND_RATIO + NOISE_FLOOR_SECONDS / result["bare_s"]
    assert result["ratio"] <= bound, (
        f"NullRecorder play took {result['ratio']:.3f}x the bare play "
        f"({result['bare_s'] * 1e3:.2f} ms, median of {PAIRS} pairs) — over "
        f"the {OVERHEAD_BOUND_RATIO:.0%} overhead budget ({bound:.3f}x)"
    )


def sixteen_task_sweep():
    """Sixteen quick e1 tasks: four tiny synthetic traces x four configs."""
    from repro.batch import SweepTask, TraceSpec

    specs = [
        TraceSpec.synthetic("scattered_hot", accesses=600, num_blocks=40, seed=seed)
        for seed in (1, 2, 3, 4)
    ]
    return [
        SweepTask.make("e1_clustering", spec, {"max_banks": banks})
        for spec in specs
        for banks in (2, 3, 4, 6)
    ]


def timed_sweep_pair(tmp_path) -> dict:
    """Interleaved timings: bare sweep vs shard-recorded sweep, per round."""
    from repro.batch import run_sweep

    tasks = sixteen_task_sweep()
    bare_seconds = []
    shard_seconds = []
    results = set()

    def timed_bare() -> None:
        start_s = time.perf_counter()
        report = run_sweep(tasks, jobs=1, cache=None)
        bare_seconds.append(time.perf_counter() - start_s)
        results.add(repr(report.results))

    def timed_shard(round_index: int) -> None:
        start_s = time.perf_counter()
        report = run_sweep(
            tasks, jobs=1, cache=None,
            shard_dir=tmp_path / f"obs-{round_index}",
        )
        shard_seconds.append(time.perf_counter() - start_s)
        results.add(repr(report.results))

    # Untimed warmup: the first instrumented sweep pays one-time import
    # costs that would otherwise inflate the first shard rounds.
    run_sweep(tasks, jobs=1, cache=None, shard_dir=tmp_path / "obs-warmup")

    for round_index in range(SHARD_ROUNDS):
        if round_index % 2 == 0:
            timed_bare()
            timed_shard(round_index)
        else:
            timed_shard(round_index)
            timed_bare()

    return {
        "tasks": len(tasks),
        "bare_s": statistics.median(bare_seconds),
        "overhead_s": statistics.median(
            shard - bare for bare, shard in zip(bare_seconds, shard_seconds)
        ),
        "distinct_results": len(results),
    }


def test_worker_shard_recording_overhead(tmp_path, benchmark):
    result = benchmark.pedantic(
        timed_sweep_pair, args=(tmp_path,), rounds=1, iterations=1
    )
    # Shard recording never changes the merged results.
    assert result["distinct_results"] == 1
    per_task_s = result["overhead_s"] / result["tasks"]
    assert per_task_s <= SHARD_TASK_BOUND_SECONDS, (
        f"shard recording cost {per_task_s * 1e3:.2f} ms per task "
        f"({result['overhead_s'] * 1e3:.1f} ms on a "
        f"{result['bare_s'] * 1e3:.1f} ms sweep, median paired round) — over "
        f"the {SHARD_TASK_BOUND_SECONDS * 1e3:.0f} ms per-task budget"
    )


def test_jsonl_recorder_counts_events(tmp_path, benchmark):
    """JsonlRecorder on the same 1M-event play: counters match the report."""
    from repro.obs import read_log

    columnar = million_event_trace()
    memory = PartitionedMemory(BANK_SIZES)
    log_path = tmp_path / "play.jsonl"

    def instrumented_play() -> float:
        with JsonlRecorder(log_path) as recorder:
            return memory.play(columnar, recorder=recorder).total

    total_pj = benchmark.pedantic(instrumented_play, rounds=1, iterations=1)
    log = read_log(log_path)
    counters = log.counters()
    assert counters.total("play.events") == len(columnar)
    assert counters.grand_total("play.energy_pj") == total_pj
