"""Run-to-run spread of the end-to-end metrics over several seeds.

From the repository root::

    python3 perfbench/stability.py --workloads iss_platform e1_flow --seeds 1-10

runs ``perfbench/run.py`` once per (workload, seed) with the
``run_seconds`` of ``BENCHMARK.json`` and prints, per workload and metric,
the median of the reported values, the distance between their first and
third quartiles (Python's ``statistics.quantiles(values, n=4)``) as a share
of the median, and that spread as a share of the metric's bound.  Over the
individual runs of all seeds it prints the median, the highest percentile
with at least ten runs beyond it, and the run count.  ``--out FILE`` also
saves every result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.run import tail_percentile

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    results: dict = {}
    for workload in args.workloads:
        for seed in args.seeds:
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = completed.stdout.strip().splitlines()
            line = json.loads(lines[-1])
            runs = json.loads(next(text for text in lines if text.startswith("# runs "))[7:])
            results.setdefault(workload, []).append({"seed": seed, "runs": runs, **line})
            values = {name: round(item["value"], 4) for name, item in line["metrics"].items()}
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {values}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    steady = True
    for workload, lines in results.items():
        print(f"{workload}: {len(lines)} seeds")
        for metric in spec["end_to_end"]:
            values = [line["metrics"][metric["name"]]["value"] for line in lines
                      if metric["name"] in line["metrics"]]
            if len(values) < 2:
                continue
            quartiles = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (quartiles[2] - quartiles[0]) / median
            share = spread / metric["bound"]
            if metric["name"] != "setup_s" and share > 1:
                steady = False
            pooled = [value for line in lines for value in line["runs"][metric["name"]]]
            tail = tail_percentile(pooled)
            tail = f", p{tail[0] * 100:.0f}={tail[1]:.6g}" if tail else ""
            print(f"  {metric['name']:18s} median={median:.6g} {metric['unit']:8s} "
                  f"spread={spread:.2%} ({share:.2f} of bound {metric['bound']}); "
                  f"runs: median={statistics.median(pooled):.6g}{tail}, n={len(pooled)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
