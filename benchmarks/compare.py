"""Paired benchmark-regression gate for CI.

CI runs the suite several times on the base commit and on the change, on
one runner, alternating which side runs first, and hands this script every
JSON export.  A sample is one run: each export gives each benchmark one
value, its ``stats.median`` in seconds (per-iteration data is ignored; the
rounds inside one pytest process are not independent samples).  Every
benchmark measured on both sides goes through one verdict path,
:func:`repro.benchstats.evaluate_benchmark` (Kalibera & Jones, ISMM 2013):
it fails when the bootstrap confidence interval on its change/base median
ratio sits entirely above 1 **and** the slowdown exceeds ``--min-effect``,
or when its p99 grew by more than ``GateConfig.tail_threshold_ratio``.

Usage::

    pytest benchmarks/ --benchmark-only --benchmark-json=change-1.json
    ...   # and base-1.json from the base tree; 5 alternating runs per side
    python benchmarks/compare.py --base base-*.json --change change-*.json
    python benchmarks/compare.py --base base-*.json --change change-*.json \\
        --select '*play*' --min-effect 0.03     # gate a subset

Exit status: 0 no regression, 1 regression, 2 usage error (a side with
fewer than ``GateConfig.min_samples`` runs, an unreadable export, or
nothing to gate).
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import math
import os
import sys
from pathlib import Path

try:
    import repro.benchstats as benchstats
except ImportError:  # bare checkout, package not installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro.benchstats as benchstats


def select_run(
    run: "benchstats.BenchRun", pattern: str | None
) -> "benchstats.BenchRun":
    """Restrict a run to benchmarks matching the shell-style ``pattern``."""
    if pattern is None:
        return run
    samples = {
        name: values
        for name, values in run.samples.items()
        if fnmatch.fnmatch(name, pattern)
    }
    return dataclasses.replace(run, samples=samples)


def min_effect(text: str) -> float:
    """``--min-effect`` value: a finite, non-negative fraction.

    ``nan`` would make every effect comparison false and pass any slowdown.
    """
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(
            f"must be a finite fraction >= 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The gate's command-line interface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base", metavar="BASE.json", type=Path, nargs="+", required=True,
        help="pytest-benchmark JSON exports of the base commit, one per run",
    )
    parser.add_argument(
        "--change", metavar="CHANGE.json", type=Path, nargs="+", required=True,
        help="pytest-benchmark JSON exports of the change, one per run",
    )
    parser.add_argument(
        "--min-effect", type=min_effect,
        default=benchstats.GateConfig().min_effect_ratio,
        help="minimum practical median slowdown before a clear CI counts "
        "as a regression (default 0.05)",
    )
    parser.add_argument(
        "--select", metavar="GLOB", default=None,
        help="gate only benchmarks whose name matches this shell pattern",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: gate the change runs against the base runs."""
    args = build_parser().parse_args(argv)
    config = benchstats.GateConfig(min_effect_ratio=args.min_effect)
    try:
        base = select_run(benchstats.load_runs(args.base), args.select)
        change = select_run(benchstats.load_runs(args.change), args.select)
        comparisons, warnings, notes = benchstats.compare_runs(base, change, config)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not comparisons:
        # Gating nothing would pass vacuously: an empty export, a broken
        # benchmark job, or a --select pattern that names no benchmark.
        scope = f" matching --select {args.select!r}" if args.select else ""
        print(
            f"error: no benchmark{scope} was measured in at least "
            f"{config.min_samples} runs on both sides ({len(base.samples)} "
            f"in the base runs, {len(change.samples)} in the change runs); "
            "refusing to pass vacuously",
            file=sys.stderr,
        )
        return 2

    gate_label = (
        f"{base.runs} base vs {change.runs} change runs, CI overlap "
        f"@{config.confidence:.0%} (min effect {config.min_effect_ratio:.0%}, "
        f"tail {config.tail_threshold_ratio:.0%})"
    )
    for warning in warnings:
        print(f"warning: {warning}")
    for note in notes:
        print(f"note: {note}")
    regressions = [c.describe() for c in comparisons if c.regressed]
    if regressions:
        print(f"{len(regressions)} benchmark regression(s) [{gate_label}]:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(
        f"benchmarks OK: no regression in {len(comparisons)} gated "
        f"[{gate_label}]"
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (head, a closed pager) stopped reading; the
        # verdict printed so far is all it wanted.  Detach stdout so the
        # interpreter's shutdown flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(0)
