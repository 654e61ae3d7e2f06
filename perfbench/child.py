"""One benchmark run: a fresh process that sets up, runs one timed pass, checks.

Launched by ``perfbench/run.py`` as ``python3 -m perfbench.child`` from the
repository root with ``src`` on ``PYTHONPATH``.  The run's stores, ``.npz``
files and result cache live in its own temporary directory under
``.perfbench/tmp/``, removed when the run ends.  There is no warm-up: the
timed pass is the first and only pass over its inputs, so in-process memos
start empty.

The last stdout line is one JSON object with the run's measurements:

* ``setup_host_s`` -- from the driver's spawn of this process to the start
  of the timed pass (``--spawned-at``, read on the shared monotonic clock);
  ``setup`` splits the in-process part into import/iss/gen/pack phases;
* ``host_s`` -- host time of the pass's operations; ``events`` -- simulated
  events they consumed;
* ``wall_s`` and ``setup_s`` -- the same host times at the nominal host
  speed (see :class:`perfbench.workloads.Gauge`): operation by operation for
  the pass, and from readings at process start and pass start for set-up;
* ``peak_rss_mib`` -- the largest peak resident set of this process and its
  pool workers during the pass (the high-water mark is reset when the pass
  starts, so set-up allocations do not mask the pass);
* ``attempted``/``failed`` and the check's failures;
* with ``--trace 1``, the per-layer ``ledger`` of the traced pass.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must read first
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench import check, tracer  # noqa: E402
from perfbench.workloads import GAUGE_NOMINAL_S, WORKLOADS, Gauge, Outcomes, phase  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="write this run's outputs as the seed's record")
    parser.add_argument("--spawned-at", type=float, default=None)
    return parser.parse_args(argv)


def import_layers() -> None:
    """Import every layer module the benchmark drives or wraps."""
    modules = {module for module, _path, _timer in tracer.SPAN_ENTRY_POINTS}
    modules |= {module for module, _path, _layer in tracer.AGGREGATED_ENTRY_POINTS}
    modules |= {"repro.core", "repro.platforms", "repro.encoding", "repro.report"}
    for module in sorted(modules):
        importlib.import_module(module)


def reset_peak_rss() -> None:
    """Reset this process's peak-RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then also covers set-up


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and its reaped children, in MiB."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak_kib = int(line.split()[1])
                    break
    except OSError:
        pass
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(peak_kib, children_kib) / 1024.0


def paper_lines(rows: list) -> list:
    """Reproduced-vs-paper rows rendered as text lines."""
    from repro.report import PaperComparison, render_comparisons

    if not rows:
        return []
    comparisons = [
        PaperComparison(experiment, metric, low, high, value, shape_holds=holds)
        for experiment, metric, low, high, value, holds in rows
    ]
    return render_comparisons(comparisons).splitlines()


def run(args, workdir: Path) -> dict:
    spawned_at = args.spawned_at if args.spawned_at is not None else PROCESS_START
    setup_gauge = Gauge()
    timings: dict = {}
    with phase(timings, "import"):
        import_layers()
    workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
    workload.setup(timings)

    active = None
    if args.trace:
        spill = workdir / "spans"
        spill.mkdir()
        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        active = tracer.Tracer(run_id, spill, tracer.calibrate())
        active.install()

    outcomes = Outcomes(Gauge())
    gauge_before_pass_s = outcomes.gauge.spent_s
    # Start the pass from a fresh collector state, so when the collector
    # runs inside the pass depends on the pass alone, not on set-up history.
    gc.collect()
    reset_peak_rss()
    pass_start = time.perf_counter()
    root = active.open("pass") if active else None
    workload.run(outcomes)
    if active:
        active.close(root)
    pass_s = time.perf_counter() - pass_start
    peak_mib = peak_rss_mib()

    setup_host_s = pass_start - spawned_at
    setup_speed = GAUGE_NOMINAL_S / ((setup_gauge.last_s + outcomes.gauge.last_s) / 2)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_host_s * setup_speed,
        "setup_host_s": setup_host_s,
        "setup": timings,
        "wall_s": outcomes.scaled_s,
        "host_s": outcomes.host_s,
        "events": outcomes.events,
        "peak_rss_mib": peak_mib,
    }
    if active:
        active.uninstall()
        ledger = tracer.build_ledger(
            active, pass_s, tracer.read_worker_spills(active.spill_dir),
            gauge_s=outcomes.gauge.spent_s - gauge_before_pass_s,
        )
        result["ledger"] = ledger
        result["spans_file"] = str(write_spans(active, args))

    if args.record:
        result["record_file"] = str(check.save_record(args.workload, args.seed, outcomes.outputs))
    verdict = check.check(args.workload, args.seed, args.smoke, outcomes.outputs, outcomes.sweeps)
    failures = dict(verdict["failures"])
    failures.update(outcomes.errors)
    result.update(
        attempted=len(outcomes.outputs) + len(outcomes.errors),
        failed=len(failures),
        failures=failures,
        record=verdict["record"],
        paper=paper_lines(verdict["paper_rows"]),
    )
    return result


def write_spans(active, args) -> Path:
    """Write the run's spans (parent and workers) once, at the end."""
    out = SCRATCH / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = [span.row() for span in active.spans]
    for record in tracer.read_worker_spills(active.spill_dir):
        spans.extend(record["spans"])
    fields = ("id", "parent", "timer", "start", "end", "child", "agg_time",
              "agg_calls", "pid", "error", "label")
    with out.open("w") as handle:
        for row in spans:
            handle.write(json.dumps({"run": active.run_id, **dict(zip(fields, row))}) + "\n")
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH / "tmp"))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.pop("paper"):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
