"""Benchmark-regression gate for CI (distribution-aware).

Compares a fresh pytest-benchmark JSON export against the committed
schema-v2 ``benchmarks/baseline.json`` and exits non-zero when any
benchmark regressed.  Every benchmark goes through one verdict path,
:func:`repro.benchstats.evaluate_benchmark`, and its sample counts alone
pick how it is judged (Kalibera & Jones, ISMM 2013):

* with at least ``GateConfig.min_samples`` per-iteration samples on each
  side, a benchmark fails when the bootstrap confidence interval on its
  ``candidate/baseline`` median ratio sits entirely above 1 **and** the
  observed slowdown exceeds a minimum practical effect
  (``--min-effect``), or when its p99 blew up while the median stayed
  flat (by more than ``GateConfig.tail_threshold_ratio``);
* with fewer (the single-round benchmarks), it fails when its median
  ratio exceeds the 25% fallback threshold.

Raw wall-clock times do not transfer between machines, so each
benchmark's samples are *normalized by the suite median* of their own
run: the gate compares each benchmark's share of the suite, which is
stable across hardware generations as long as the suite composition is.

Runs may carry a provenance *manifest* (the ``repro.obs`` run manifest):
environment keys that differ are printed as warning notes — drift
explains a slowdown but never fails the gate on its own.

Usage::

    REPRO_BENCH_ROUNDS=5 pytest benchmarks/ --benchmark-only \\
        --benchmark-json=bench.json --benchmark-save-data
    python benchmarks/compare.py bench.json                    # gate
    python benchmarks/compare.py bench.json --select '*play*'  # gate a subset
    python benchmarks/compare.py bench.json --update-baseline  # refresh
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import os
import sys
from pathlib import Path

try:
    import repro.benchstats as benchstats
except ImportError:  # bare checkout, package not installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro.benchstats as benchstats

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: Manifest keys that legitimately differ between two comparable runs
#: (mirrors repro.obs.manifest._RUN_SPECIFIC_KEYS, plus the schema marker).
_RUN_SPECIFIC_KEYS = frozenset({"seed", "config_hash", "extra", "schema"})


def load_run(path: Path) -> "benchstats.BenchRun":
    """Full run (per-iteration samples, suite-normalized) from an export."""
    return benchstats.extract_run(json.loads(path.read_text()))


def compare_distributions(
    baseline: "benchstats.BenchRun",
    candidate: "benchstats.BenchRun",
    config: "benchstats.GateConfig",
) -> tuple[list[str], list[str], list[str]]:
    """Gate every baseline benchmark: ``(regressions, warnings, notes)``.

    A baseline benchmark absent from the candidate run is a *warning*: the
    gate did not check it, which must be visible (a silently skipped
    benchmark reads as a pass).  A candidate benchmark with no baseline yet
    is an informational note, so adding a benchmark does not require
    touching the baseline in the same commit.  Neither fails the gate by
    itself — but a candidate missing *every* baseline benchmark does, in
    :func:`main`.  The benchmarks judged by the median fallback (too few
    samples on one side) are named in one note.
    """
    regressions: list[str] = []
    warnings: list[str] = []
    notes: list[str] = []
    fallbacks: list[str] = []
    for name in sorted(baseline.records):
        if name not in candidate.records:
            warnings.append(f"missing from candidate run (not gated): {name}")
            continue
        comparison = benchstats.evaluate_benchmark(
            name,
            baseline.records[name].samples,
            candidate.records[name].samples,
            config,
        )
        if comparison.mode == "legacy":
            fallbacks.append(name)
        if comparison.regressed:
            regressions.append(comparison.describe())
    if fallbacks:
        notes.append(
            f"{len(fallbacks)} benchmark(s) gated by the "
            f"{benchstats.gate.DEFAULT_LEGACY_THRESHOLD_RATIO:.0%} median "
            f"threshold (fewer than {config.min_samples} samples on one "
            f"side): {', '.join(fallbacks)}"
        )
    for name in sorted(set(candidate.records) - set(baseline.records)):
        notes.append(f"new benchmark (no baseline yet): {name}")
    return regressions, warnings, notes


def select_run(
    run: "benchstats.BenchRun", pattern: str | None
) -> "benchstats.BenchRun":
    """Restrict a run to benchmarks matching the shell-style ``pattern``."""
    if pattern is None:
        return run
    records = {
        name: record
        for name, record in run.records.items()
        if fnmatch.fnmatch(name, pattern)
    }
    return dataclasses.replace(run, records=records)


def load_manifest(path: Path) -> dict | None:
    """Optional ``manifest`` payload embedded in a run or baseline file."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    manifest = data.get("manifest")
    return manifest if isinstance(manifest, dict) else None


def current_manifest() -> dict | None:
    """Manifest of the running environment, when ``repro`` is importable.

    Only a missing ``repro`` package yields ``None``; any other import
    failure is a real error and raises.
    """
    try:
        from repro.obs.manifest import collect_manifest
    except ModuleNotFoundError as error:
        if error.name != "repro":
            raise
        return None
    return collect_manifest().to_dict()


def manifest_drift(baseline: dict | None, candidate: dict | None) -> list[str]:
    """Warning notes for environment keys differing baseline vs candidate.

    Missing manifests produce a single explanatory note; run-specific keys
    (seed, config hash, free-form extras) never count as drift.  Notes only —
    an environment change explains a regression, it does not excuse one.
    """
    if baseline is None:
        return [
            "baseline carries no manifest; refresh with --update-baseline "
            "to record the environment"
        ]
    if candidate is None:
        return ["candidate run carries no manifest; environment drift not checked"]
    notes: list[str] = []
    for key in sorted(set(baseline) | set(candidate)):
        if key in _RUN_SPECIFIC_KEYS:
            continue
        if baseline.get(key) != candidate.get(key):
            notes.append(
                f"manifest drift on {key!r}: baseline {baseline.get(key)!r} "
                f"!= candidate {candidate.get(key)!r}"
            )
    return notes


def update_baseline(candidate_path: Path, baseline_path: Path) -> None:
    """Write the candidate run's distribution as the new committed baseline.

    The current environment's manifest is embedded when the run carries
    none, so later runs can flag environment drift against this baseline.
    """
    run = load_run(candidate_path)
    if run.manifest is None:
        manifest = current_manifest()
        if manifest is not None:
            run = dataclasses.replace(run, manifest=manifest)
    benchstats.save_baseline(benchstats.build_baseline_payload(run), baseline_path)


def build_parser() -> argparse.ArgumentParser:
    """The gate's command-line interface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", type=Path, help="pytest-benchmark JSON export")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--min-effect", type=float, default=benchstats.GateConfig().min_effect_ratio,
        help="minimum practical median slowdown before a clear CI counts "
        "as a regression (default 0.05)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baseline with the candidate run and exit",
    )
    parser.add_argument(
        "--select", metavar="GLOB", default=None,
        help="gate only benchmarks whose name matches this shell pattern",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: compare a run against the baseline, or refresh it."""
    args = build_parser().parse_args(argv)

    if args.update_baseline:
        update_baseline(args.candidate, args.baseline)
        print(f"baseline refreshed: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found", file=sys.stderr)
        return 2
    baseline_run = select_run(
        benchstats.parse_baseline(json.loads(args.baseline.read_text())),
        args.select,
    )
    candidate_run = select_run(load_run(args.candidate), args.select)
    if args.select and not baseline_run.records:
        # A pattern that matches nothing in the baseline gates nothing:
        # exiting 0 would let a renamed or deleted benchmark (or a typo in
        # a CI step) masquerade as a pass forever.
        print(
            f"error: --select {args.select!r} matches no baseline "
            f"benchmarks; fix the pattern or refresh the baseline",
            file=sys.stderr,
        )
        return 2
    if baseline_run.records and not candidate_run.records:
        # With nothing measured there is nothing to gate: exiting 0 here
        # would let a broken benchmark job (collection error, empty export)
        # masquerade as a pass.
        print(
            "error: candidate run contains no gated benchmarks "
            f"({len(baseline_run.records)} in baseline); refusing to pass "
            "vacuously",
            file=sys.stderr,
        )
        return 2

    config = benchstats.GateConfig(min_effect_ratio=args.min_effect)
    regressions, warnings, notes = compare_distributions(
        baseline_run, candidate_run, config
    )
    gate_label = (
        f"CI overlap @{config.confidence:.0%} (min effect "
        f"{config.min_effect_ratio:.0%}, tail {config.tail_threshold_ratio:.0%})"
    )
    drift = manifest_drift(
        load_manifest(args.baseline),
        load_manifest(args.candidate) or current_manifest(),
    )
    for warning in warnings:
        print(f"warning: {warning}")
    for note in notes + drift:
        print(f"note: {note}")
    if regressions:
        print(f"{len(regressions)} benchmark regression(s) [{gate_label}]:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"benchmarks OK: no regression [{gate_label}]")
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
