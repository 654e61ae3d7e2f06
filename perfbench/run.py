"""Benchmark driver: run one workload at one seed for a fixed time budget.

From the repository root::

    python3 perfbench/run.py --workload iss_platform --seed 0 --seconds 35 --trace 0

A *run* is a fresh child process (``perfbench/child.py``) that builds its
inputs from the seed, executes one timed pass, checks every simulated
output and reports its measurements.  The driver issues runs closed loop,
one after the other, and stops before a run would overrun ``--seconds``
(judged by the longest run so far); it always makes at least one run, and
with ``--trace 1`` at least one untraced and one traced run, alternating.

With ``--trace 0`` the driver reports the end-to-end metrics of
``BENCHMARK.json`` as medians over its runs; with ``--trace 1`` it reports
the per-layer metrics of the traced runs, and ``tracing.overhead_frac``
from the untraced runs beside them.  Every metric is printed by name with
its unit, its median, the highest percentile with at least ten runs beyond
it (once there are enough runs) and the run count; a ``# runs`` line holds
every run's values.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit status is 0 whenever that line is printed, 2 when the checkout lacks
the package sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every run ends this long after the driver starts; a run still going is
#: killed and counted as failed.
DEADLINE_S = 170.0


def parse_args(argv):
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced input size (self-test)")
    return parser.parse_args(argv)


def launch(args, traced: bool, deadline: float) -> dict:
    """Run one child to completion; return its result (or a failure stub)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    spawned_at = time.perf_counter()
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--spawned-at", repr(spawned_at),
    ]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        status = child.returncode
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"run passed the driver's {DEADLINE_S:.0f} s deadline and was killed"
        status = None
    finally:
        # The child's pool workers share its process group: stop any left.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if child.poll() is None:
            child.kill()
        child.wait()
    elapsed = time.perf_counter() - spawned_at
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if status == 0 and lines else None
    except ValueError:
        result = None
    if result is None:
        tail = (stderr or stdout).strip().splitlines()[-5:]
        return {"crashed": True, "traced": traced, "elapsed": elapsed, "reason": tail}
    result.update(elapsed=elapsed, text=lines[:-1], crashed=False)
    return result


def tail_percentile(values: list):
    """(fraction, value) of the highest percentile with >= 10 runs beyond it."""
    from repro.benchstats.stats import percentile

    count = len(values)
    if count < 11:
        return None
    fraction = math.floor(100 * (count - 11) / (count - 1)) / 100
    return fraction, percentile(values, fraction)


def summarize(name: str, unit: str, values: list) -> str:
    from repro.benchstats.stats import median

    tail = tail_percentile(values)
    tail_text = f"p{tail[0] * 100:.0f}={tail[1]:.6g}" if tail else "tail n/a (<11 runs)"
    return f"  {name:28s} {unit:9s} median={median(values):.6g}  {tail_text}  runs={len(values)}"


def end_to_end(runs: list) -> dict:
    """Per-run end-to-end values of the untraced runs, by metric."""
    measured = [run for run in runs if not run["crashed"] and not run["traced"]]
    return {
        "wall_s": [run["wall_s"] for run in measured],
        "sim_events_per_s": [run["events"] / run["wall_s"] for run in measured],
        "setup_s": [run["setup_s"] for run in measured],
        "peak_rss_mib": [run["peak_rss_mib"] for run in measured],
    }


def per_layer(runs: list) -> dict:
    """Per-run per-layer values: traced ledgers, set-up phases, overhead."""
    from repro.benchstats.stats import median

    traced = [run for run in runs if not run["crashed"] and run["traced"]]
    plain = [run for run in runs if not run["crashed"] and not run["traced"]]
    values: dict = {}
    for run in traced:
        for name, value in run["ledger"]["metrics"].items():
            values.setdefault(name, []).append(value)
    for run in traced + plain:
        for phase_name in ("import", "iss", "gen", "pack"):
            values.setdefault(f"setup.{phase_name}_s", []).append(run["setup"].get(phase_name, 0.0))
    if traced and plain:
        overhead = median([run["wall_s"] for run in traced]) / median([run["wall_s"] for run in plain]) - 1
        values["tracing.overhead_frac"] = [overhead]
    return values


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.benchstats.stats import median

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs: list = []
    started = time.perf_counter()
    needed = 2 if args.trace else 1
    while True:
        run = launch(args, bool(args.trace) and len(runs) % 2 == 1, started + DEADLINE_S)
        runs.append(run)
        if run["crashed"]:
            break
        longest = max(item["elapsed"] for item in runs)
        if len(runs) >= needed and time.perf_counter() - started + longest > args.seconds:
            break

    crashed = [run for run in runs if run["crashed"]]
    attempted = sum(run["attempted"] for run in runs if not run["crashed"]) + len(crashed)
    failed = sum(run["failed"] for run in runs if not run["crashed"]) + len(crashed)

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs, closed loop, "
          f"{'traced and untraced' if args.trace else 'untraced'}")
    for index, run in enumerate(runs):
        if run["crashed"]:
            print(f"  run {index}: CRASHED after {run['elapsed']:.1f} s: {' | '.join(run['reason'])}")
            continue
        print(f"  run {index}: traced={int(run['traced'])} wall={run['wall_s']:.4f}s "
              f"(host {run['host_s']:.4f}s) setup={run['setup_s']:.4f}s "
              f"(host {run['setup_host_s']:.4f}s) events={run['events']} peak={run['peak_rss_mib']:.1f}MiB "
              f"failed={run['failed']}/{run['attempted']} record={run['record']}")
        for name, reason in sorted(run["failures"].items()):
            print(f"    FAILED {name}: {reason}")
    first = next((run for run in runs if not run["crashed"]), None)
    if first is not None:
        for line in first["text"]:
            print(line)

    values = per_layer(runs) if args.trace else end_to_end(runs)
    error_rate = failed / attempted if attempted else 1.0
    print("metrics:")
    print(f"  {'error_rate':28s} {'fraction':9s} {error_rate:.6g}  ({failed} failed of {attempted} operations)")
    metrics = {}
    for entry in wanted:
        samples = values.get(entry["name"])
        if not samples:
            continue
        print(summarize(entry["name"], entry["unit"], samples))
        metrics[entry["name"]] = {"value": median(samples), "unit": entry["unit"]}
    if args.trace:
        print_ledger(runs)
    print("# runs " + json.dumps(values, sort_keys=True))

    correct = not crashed and failed == 0 and len(metrics) == len(wanted)
    print(json.dumps(
        {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics},
        sort_keys=True,
    ))
    return 0


def print_ledger(runs: list) -> None:
    """Layer self times of the first traced run, and its reconciliation."""
    traced = next((run for run in runs if not run["crashed"] and run["traced"]), None)
    if traced is None:
        return
    ledger = traced["ledger"]
    wall = ledger["wall_s"]
    print(f"layer self time in the traced pass ({wall:.3f} s wall, all processes):")
    for layer, seconds in sorted(ledger["layer_self_s"].items(), key=lambda item: -item[1]):
        print(f"  {layer:10s} {seconds:9.4f} s  {seconds / wall:6.1%}")
    parent = ledger["parent"]
    print(f"parent timeline: layers {sum(parent['layer_self_s'].values()):.4f} s + "
          f"pool wait {parent['wait_s']:.4f} s + speed gauge {parent['gauge_s']:.4f} s + "
          f"unattributed {parent['unattributed_s']:.4f} s "
          f"(of which tracer {parent['tracer_cost_s']:.4f} s) = {parent['accounted_frac']:.2%} of wall")
    print("# ledger " + json.dumps(
        {key: ledger[key] for key in ("layer_self_s", "parent", "wall_s", "costs_ns")},
        sort_keys=True,
    ))


if __name__ == "__main__":
    sys.exit(main())
