"""Benchmark-regression gate for CI (distribution-aware).

Compares a fresh pytest-benchmark JSON export against the committed
``benchmarks/baseline.json`` and exits non-zero when any benchmark
regressed.  Since baseline schema v2 the gate is *distribution-aware*
(Kalibera & Jones, ISMM 2013): the baseline stores suite-normalized
per-iteration samples, and a benchmark fails the gate only when the
bootstrap confidence interval on its ``candidate/baseline`` median ratio
sits entirely above 1 **and** the observed slowdown exceeds a minimum
practical effect (``--min-effect``).  A separate, deliberately looser
tail gate fails benchmarks whose p99 blew up while the median stayed
flat (by more than ``GateConfig.tail_threshold_ratio``).

Raw wall-clock times do not transfer between machines, so each
benchmark's samples are *normalized by the suite median* of their own
run: the gate compares each benchmark's share of the suite, which is
stable across hardware generations as long as the suite composition is.
Pass ``--absolute`` to compare raw medians instead (only meaningful when
baseline and candidate ran on the same machine), or ``--legacy-median``
to reproduce the historic median-threshold verdict exactly.

v1 baselines (medians only) are still readable: every benchmark then
falls back to the legacy median threshold, and one refresh with
``--update-baseline`` migrates the file to schema v2 with samples.
``--update-baseline --dry-run`` prints the would-be refresh instead of
writing it (the scheduled baseline-refresh workflow uploads that diff
for manual review).

Runs may carry a provenance *manifest* (the ``repro.obs`` run manifest):
environment keys that differ are printed as warning notes — drift
explains a slowdown but never fails the gate on its own.

Usage::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python benchmarks/compare.py bench.json                    # gate
    python benchmarks/compare.py bench.json --update-baseline  # refresh
    python benchmarks/compare.py bench.json --select '*play_1m*' --legacy-median --threshold 0.03
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

DEFAULT_THRESHOLD = 0.25
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: Manifest keys that legitimately differ between two comparable runs
#: (mirrors repro.obs.manifest._RUN_SPECIFIC_KEYS, plus the schema marker).
_RUN_SPECIFIC_KEYS = frozenset({"seed", "config_hash", "extra", "schema"})


def load_medians(path: Path) -> dict[str, float]:
    """Benchmark name -> median seconds from a pytest-benchmark JSON export."""
    data = json.loads(path.read_text())
    return benchstats.extract_run(data).raw_medians()


def load_run(path: Path) -> "benchstats.BenchRun":
    """Full run (per-iteration samples, suite-normalized) from an export."""
    return benchstats.extract_run(json.loads(path.read_text()))


def normalize(medians: dict[str, float]) -> dict[str, float]:
    """Scale each median by the suite median (machine-speed normalization)."""
    if not medians:
        return {}
    suite_median = benchstats.median(list(medians.values()))
    if suite_median <= 0:
        return dict(medians)
    return {name: value / suite_median for name, value in medians.items()}


def compare(
    baseline: dict[str, float],
    candidate: dict[str, float],
    threshold: float,
    absolute: bool = False,
) -> tuple[list[str], list[str], list[str]]:
    """Legacy median gate: ``(regressions, warnings, notes)`` for a candidate.

    A regression is a benchmark whose (normalized) median exceeds the
    baseline's by more than ``threshold``.  A baseline benchmark absent
    from the candidate run is a *warning*: the gate did not check it, which
    must be visible (a silently skipped benchmark reads as a pass).  A
    candidate benchmark with no baseline yet is an informational note, so
    adding a benchmark does not require touching the baseline in the same
    commit.  Neither fails the gate by itself — but a candidate missing
    *every* baseline benchmark does, in :func:`main`.
    """
    base = dict(baseline) if absolute else normalize(baseline)
    cand = dict(candidate) if absolute else normalize(candidate)
    regressions: list[str] = []
    warnings: list[str] = []
    notes: list[str] = []
    for name in sorted(base):
        if name not in cand:
            warnings.append(f"missing from candidate run (not gated): {name}")
            continue
        reference = base[name]
        measured = cand[name]
        if reference <= 0:
            continue
        change = measured / reference - 1.0
        if change > threshold:
            regressions.append(
                f"{name}: {change:+.1%} (baseline {reference:.4g}, "
                f"measured {measured:.4g})"
            )
    for name in sorted(set(cand) - set(base)):
        notes.append(f"new benchmark (no baseline yet): {name}")
    return regressions, warnings, notes


def compare_distributions(
    baseline: "benchstats.BenchRun",
    candidate: "benchstats.BenchRun",
    config: "benchstats.GateConfig",
) -> tuple[list[str], list[str], list[str]]:
    """Distribution gate: CI overlap on the median ratio plus the p99 tail.

    Same ``(regressions, warnings, notes)`` contract as :func:`compare`;
    benchmarks whose sample sets are too small for a meaningful interval
    fall back to the legacy threshold and are counted in one note.
    """
    regressions: list[str] = []
    warnings: list[str] = []
    notes: list[str] = []
    legacy_fallbacks = 0
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
            legacy_fallbacks += 1
        if comparison.regressed:
            regressions.append(comparison.describe(config))
    if legacy_fallbacks:
        notes.append(
            f"{legacy_fallbacks} benchmark(s) gated by the legacy median "
            f"threshold (fewer than {config.min_samples} samples on one "
            f"side); refresh the baseline from a multi-round run to enable "
            f"the CI gate"
        )
    for name in sorted(set(candidate.records) - set(baseline.records)):
        notes.append(f"new benchmark (no baseline yet): {name}")
    return regressions, warnings, notes


def select_medians(medians: dict[str, float], pattern: str | None) -> dict[str, float]:
    """Restrict to benchmarks whose name matches the shell-style ``pattern``."""
    if pattern is None:
        return medians
    return {
        name: value
        for name, value in medians.items()
        if fnmatch.fnmatch(name, pattern)
    }


def select_run(
    run: "benchstats.BenchRun", pattern: str | None
) -> "benchstats.BenchRun":
    """Restrict a run to benchmarks matching the shell-style ``pattern``."""
    if pattern is None:
        return run
    return dataclasses.replace(
        run, records=select_medians(dict(run.records), pattern)
    )


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


def build_refreshed_baseline(candidate_path: Path) -> dict:
    """The would-be v2 baseline payload for a candidate run.

    The current environment's manifest is embedded when available, so later
    runs can flag environment drift against this baseline.
    """
    run = load_run(candidate_path)
    if run.manifest is None:
        manifest = current_manifest()
        if manifest is not None:
            run = dataclasses.replace(run, manifest=manifest)
    return benchstats.build_baseline_payload(run)


def update_baseline(candidate_path: Path, baseline_path: Path) -> None:
    """Write the candidate run's distribution as the new committed baseline."""
    benchstats.save_baseline(build_refreshed_baseline(candidate_path), baseline_path)


def describe_refresh(payload: dict, baseline_path: Path) -> list[str]:
    """Human-readable diff lines: would-be baseline vs the committed one."""
    new_medians = {
        name: entry["median_seconds"]
        for name, entry in payload["benchmarks"].items()
    }
    if not baseline_path.exists():
        return [f"new baseline ({len(new_medians)} benchmarks); none committed yet"]
    old = benchstats.parse_baseline(json.loads(baseline_path.read_text()))
    old_medians = old.raw_medians()
    lines = [
        f"committed baseline: schema v{old.schema}, {len(old_medians)} "
        f"benchmarks; refresh: schema v{payload['schema']}, "
        f"{len(new_medians)} benchmarks"
    ]
    for name in sorted(set(old_medians) | set(new_medians)):
        if name not in old_medians:
            lines.append(f"  added: {name} ({new_medians[name]:.4g}s)")
        elif name not in new_medians:
            lines.append(f"  removed: {name}")
        elif old_medians[name] > 0:
            change = new_medians[name] / old_medians[name] - 1.0
            lines.append(
                f"  {name}: {old_medians[name]:.4g}s -> "
                f"{new_medians[name]:.4g}s ({change:+.1%})"
            )
    return lines


def load_baseline(path: Path) -> dict[str, float]:
    """Raw medians stored in a committed baseline document (v1 or v2)."""
    return benchstats.parse_baseline(json.loads(path.read_text())).raw_medians()


def build_parser() -> argparse.ArgumentParser:
    """The gate's command-line interface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", type=Path, help="pytest-benchmark JSON export")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="legacy-mode allowed fractional slowdown (default 0.25); used "
        "by --legacy-median/--absolute and by small-sample fallbacks",
    )
    parser.add_argument(
        "--min-effect", type=float, default=benchstats.GateConfig().min_effect_ratio,
        help="minimum practical median slowdown before a clear CI counts "
        "as a regression (default 0.05)",
    )
    parser.add_argument(
        "--legacy-median", action="store_true",
        help="gate on suite-normalized medians against --threshold only "
        "(the pre-v2 behavior; no intervals, no tail gate)",
    )
    parser.add_argument(
        "--absolute", action="store_true",
        help="compare raw medians instead of suite-normalized ones",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baseline with the candidate run and exit",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="with --update-baseline: print the would-be refresh (and "
        "write it to --dry-run-out) without touching the baseline",
    )
    parser.add_argument(
        "--dry-run-out", type=Path, default=None, metavar="FILE",
        help="where --dry-run writes the would-be baseline document",
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
        payload = build_refreshed_baseline(args.candidate)
        if args.dry_run:
            for line in describe_refresh(payload, args.baseline):
                print(line)
            if args.dry_run_out is not None:
                benchstats.save_baseline(payload, args.dry_run_out)
                print(f"would-be baseline written to {args.dry_run_out}")
            print(f"dry run: baseline {args.baseline} left untouched")
            return 0
        benchstats.save_baseline(payload, args.baseline)
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

    if args.legacy_median or args.absolute:
        regressions, warnings, notes = compare(
            baseline_run.raw_medians(),
            candidate_run.raw_medians(),
            args.threshold,
            absolute=args.absolute,
        )
        gate_label = f"median threshold {args.threshold:.0%}"
    else:
        config = benchstats.GateConfig(
            min_effect_ratio=args.min_effect,
            legacy_threshold_ratio=args.threshold,
        )
        regressions, warnings, notes = compare_distributions(
            baseline_run, candidate_run, config
        )
        notes = list(baseline_run.notes) + notes
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
