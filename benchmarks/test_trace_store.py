"""Trace-store wins: store-load speedup vs re-parse, bounded streaming RSS.

Two pins for the out-of-core trace store (``repro.trace.store``):

* **Load speedup** — opening a packed ~200k-event store (verified: every
  column re-hashed against the header) must be at least ``MIN_SPEEDUP``×
  faster than re-parsing the same trace from the text format, the
  re-derivation the store exists to replace (not a synthetic recipe: the
  generators draw whole columns as arrays, about as fast as a verified
  load).  Both sides must give the trace's ``trace_digest``.
* **Bounded peak RSS** — streaming a hot-skewed synthetic trace ~18×
  the configured chunk budget through ``repro optimize`` must hold the
  process's peak RSS below the in-memory ``.npz`` run on the same events
  (every column of the whole trace resident at once) *and* below an
  absolute ceiling, proving playback memory is bounded by the chunk size
  rather than the trace length.

Both wall-clock measurements are exported through pytest-benchmark so
``compare.py --select '*store*'`` tracks them distribution-aware.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.batch import TraceSpec
from repro.obs.clock import WallClock
from repro.report import render_table
from repro.trace.io import load_text, save_npz, save_text, trace_digest
from repro.trace.store import load_store, save_store

#: Recipe for the load-speedup trace (~200k events).
LOAD_SPEC = TraceSpec.synthetic(
    "scattered_hot", num_blocks=400, num_hot=40, accesses=200_000, seed=41
)
MIN_SPEEDUP = 3.0

#: The streaming trace is ~18 chunks at this budget — well past the 4x
#: floor where out-of-core behaviour must show.
STREAM_EVENTS = 600_000
STREAM_CHUNK = 32_768
#: Absolute peak-RSS ceiling for the streamed run, in KiB (VmHWM on
#: Linux).  The ``.npz`` run holds the whole 600k-event trace and the flow's
#: per-event working arrays in memory at once; the streamed run must stay
#: near the interpreter+numpy floor.
STREAM_RSS_CEILING_KB = 400_000

#: Child snippet: run one CLI invocation, then report this process's peak
#: RSS (KiB) as the last stdout line.  VmHWM from /proc/self/status is the
#: post-exec high-water mark of *this* process; getrusage's ru_maxrss is
#: deliberately avoided — on Linux it survives execve, so a child forked
#: from a large parent (a pytest session deep into the suite) reports the
#: parent's peak instead of its own.  ru_maxrss is only the non-/proc
#: fallback.
_RSS_CHILD = """
import resource, sys
from repro.cli import main
code = main(sys.argv[1:])
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
                break
except OSError:
    pass
print("RSS_KB", peak_kb)
sys.exit(code)
"""


def measure_load_speedup(store_root: Path) -> dict:
    """Write the trace once as text and as a store, then time both loads."""
    clock = WallClock()
    trace = LOAD_SPEC.load()
    path = save_store(trace, store_root / "load.tstore")
    text_path = store_root / "load.trc"
    save_text(trace, text_path)

    start = clock.now_seconds()
    reparsed = load_text(text_path)
    reparse_seconds = clock.now_seconds() - start

    start = clock.now_seconds()
    loaded = load_store(path, verify=True)
    store_seconds = clock.now_seconds() - start

    digest = trace_digest(trace)
    assert trace_digest(reparsed) == trace_digest(loaded) == digest
    assert loaded.name == trace.name
    return {
        "events": len(trace),
        "reparse_seconds": reparse_seconds,
        "store_seconds": store_seconds,
        "speedup": reparse_seconds / max(store_seconds, 1e-9),
        "digest": digest,
    }


def test_trace_store_load_vs_reparse(benchmark, tmp_path):
    """Verified store load must beat text re-parse by >= MIN_SPEEDUP x."""
    result = benchmark.pedantic(
        measure_load_speedup,
        args=(tmp_path,),
        rounds=1,
        iterations=1,
    )
    print(
        render_table(
            ["path", "wall seconds", "speedup"],
            [
                ["text re-parse", f"{result['reparse_seconds']:.3f}", "-"],
                [
                    "store load (verified)",
                    f"{result['store_seconds']:.3f}",
                    f"{result['speedup']:.1f}x",
                ],
            ],
            title=f"\ntrace-store load vs re-parse ({result['events']} events)",
        )
    )
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"verified store load only {result['speedup']:.2f}x faster than "
        f"re-parsing the text trace (need >= {MIN_SPEEDUP}x)"
    )


def _child_rss_kb(cli_args: list, cwd: Path) -> int:
    """Run one ``repro`` CLI invocation in a subprocess; return its peak RSS."""
    src_root = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_root), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD] + cli_args,
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    for line in reversed(completed.stdout.splitlines()):
        if line.startswith("RSS_KB "):
            return int(line.split()[1])
    raise AssertionError(f"no RSS_KB line in child output:\n{completed.stdout}")


def measure_streaming_rss(work: Path) -> dict:
    """Pack a >>chunk-budget trace; compare streamed vs in-memory ``.npz`` RSS."""
    trace = TraceSpec.synthetic(
        "hot_cold", accesses=STREAM_EVENTS, seed=42
    ).load()
    store = save_store(trace, work / "stream.tstore", chunk_size=STREAM_CHUNK)
    npz = work / "stream.npz"
    save_npz(trace, npz)
    del trace

    streamed_kb = _child_rss_kb(["optimize", str(store), "--banks", "4"], work)
    npz_kb = _child_rss_kb(["optimize", str(npz), "--banks", "4"], work)
    return {
        "chunks": -(-STREAM_EVENTS // STREAM_CHUNK),
        "streamed_kb": streamed_kb,
        "npz_kb": npz_kb,
        "ratio": npz_kb / max(streamed_kb, 1),
    }


def test_trace_store_streaming_peak_rss(benchmark, tmp_path):
    """Streamed optimize must hold peak RSS under the ``.npz`` run + ceiling."""
    # Stateful across rounds (packs + spawns children): legacy single round.
    result = benchmark.pedantic(
        measure_streaming_rss, args=(tmp_path,), rounds=1, iterations=1
    )
    print(
        render_table(
            ["execution", "peak RSS (KiB)", "vs streamed"],
            [
                ["streamed .tstore optimize", f"{result['streamed_kb']}", "-"],
                [
                    "in-memory .npz optimize",
                    f"{result['npz_kb']}",
                    f"{result['ratio']:.1f}x",
                ],
            ],
            title=f"\nstreamed optimize peak RSS ({STREAM_EVENTS} events, "
            f"{result['chunks']} chunks of {STREAM_CHUNK})",
        )
    )
    print(json.dumps({"trace_store_rss": result}, sort_keys=True))
    assert result["streamed_kb"] < result["npz_kb"], (
        f"streamed run used {result['streamed_kb']} KiB, in-memory .npz run "
        f"{result['npz_kb']} KiB — streaming saved nothing"
    )
    assert result["streamed_kb"] < STREAM_RSS_CEILING_KB, (
        f"streamed optimize peaked at {result['streamed_kb']} KiB "
        f"(ceiling {STREAM_RSS_CEILING_KB} KiB)"
    )
