"""Unit tests for the paired benchmark-regression gate (``benchmarks/compare.py``).

The gate is a standalone script (CI invokes it with ``python``), so it is
loaded here via ``importlib`` rather than imported as a package module.
Each side is a list of pytest-benchmark exports, one per run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.benchstats import BenchRun, GateConfig, compare_runs, load_runs

_COMPARE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE_PATH)
compare_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_module)


def write_run(
    path: Path, medians: dict[str, float], data: dict[str, list] | None = None
) -> Path:
    """Write a minimal pytest-benchmark JSON export.

    ``data`` adds per-iteration raw samples (the ``--benchmark-save-data``
    layout) for the benchmarks it names; the gate must ignore them.
    """
    payload = {
        "benchmarks": [
            {
                "fullname": name,
                "name": name,
                "stats": dict(
                    {"median": median},
                    **({"data": data[name]} if data and name in data else {}),
                ),
            }
            for name, median in medians.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


#: Deterministic per-run jitter (fractional deviations from a benchmark's
#: true median).  Both stay within ±2%, so two sides drawn from them differ
#: by measurement noise only.
_JITTER_BASE = (-0.02, 0.0, 0.01, -0.01, 0.02)
_JITTER_NOISE = (0.015, -0.015, 0.0, 0.02, -0.02)

_SUITE = {"s::a": 1.0, "s::b": 2.0, "s::c": 3.0, "s::d": 4.0, "s::e": 5.0}


def write_side(
    directory: Path,
    side: str,
    jitter=_JITTER_BASE,
    suite: dict[str, float] = _SUITE,
    scale: dict[str, float] | None = None,
    tail: str | None = None,
) -> list[Path]:
    """One export per run of ``suite``; ``tail`` makes its last run 2.6x."""
    scale = scale or {}
    paths = []
    for index, deviation in enumerate(jitter):
        medians = {
            name: base * (1.0 + deviation) * scale.get(name, 1.0)
            for name, base in suite.items()
        }
        if tail is not None and index == len(jitter) - 1:
            medians[tail] = suite[tail] * 2.6
        paths.append(write_run(directory / f"{side}-{index}.json", medians))
    return paths


def gate(base: list[Path], change: list[Path], *extra: str) -> int:
    return compare_module.main(
        ["--base", *map(str, base), "--change", *map(str, change), *extra]
    )


def test_identical_run_passes(tmp_path, capsys):
    base = write_side(tmp_path, "base")
    change = write_side(tmp_path, "change")
    assert gate(base, change) == 0
    assert "benchmarks OK: no regression in 5 gated" in capsys.readouterr().out


def test_synthetic_regression_fails_the_gate(tmp_path, capsys):
    # Three of five benchmarks 2x slower.  Judged as shares of the suite
    # median this passed: the median itself moved with them.
    base = write_side(tmp_path, "base")
    change = write_side(
        tmp_path, "change", _JITTER_NOISE, scale={"s::a": 2.0, "s::c": 2.0, "s::e": 2.0}
    )
    assert gate(base, change) == 1
    out = capsys.readouterr().out
    assert "3 benchmark regression(s)" in out
    for name in ("s::a", "s::c", "s::e"):
        assert f"  {name}: median +" in out
    assert "s::b:" not in out and "s::d:" not in out


def test_an_export_counts_once_with_its_median(tmp_path):
    # Per-iteration data that reads 5x slower is ignored: one run is one
    # sample, its median.
    slow_data = {"s::a": [5.0] * 8}
    paths = [
        write_run(tmp_path / f"run-{index}.json", {"s::a": 1.0 + index / 100}, slow_data)
        for index in range(5)
    ]
    run = load_runs(paths)
    assert run.runs == 5
    assert run.samples == {"s::a": (1.0, 1.01, 1.02, 1.03, 1.04)}
    base = write_side(tmp_path, "base", suite={"s::a": 1.0})
    assert gate(base, paths) == 0


def test_too_few_runs_is_a_usage_error(tmp_path, capsys):
    base = write_side(tmp_path, "base", jitter=_JITTER_BASE[:3])
    change = write_side(tmp_path, "change")
    assert gate(base, change) == 2
    err = capsys.readouterr().err
    assert "3 base and 5 change runs" in err
    assert "at least 4 runs per side" in err


def test_empty_side_is_a_usage_error(tmp_path, capsys):
    change = write_side(tmp_path, "change")
    with pytest.raises(SystemExit) as exit_info:
        compare_module.main(["--base", "--change", *map(str, change)])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        compare_module.main(["--change", *map(str, change)])
    assert exit_info.value.code == 2
    assert "--base" in capsys.readouterr().err


def test_empty_candidate_run_is_a_hard_error(tmp_path, capsys):
    # Exports with no benchmarks at all (a broken job) must not pass
    # vacuously.
    base = write_side(tmp_path, "base")
    change = [write_run(tmp_path / f"empty-{index}.json", {}) for index in range(5)]
    assert gate(base, change) == 2
    err = capsys.readouterr().err
    assert "5 in the base runs, 0 in the change runs" in err
    assert "refusing to pass vacuously" in err


def test_missing_baseline_is_a_hard_error(tmp_path, capsys):
    change = write_side(tmp_path, "change")
    assert gate([tmp_path / "nope.json"] * 5, change) == 2
    assert "cannot read benchmark run" in capsys.readouterr().err


@pytest.mark.parametrize("median", [0.0, -1.0, float("nan")])
def test_non_positive_median_is_a_usage_error(tmp_path, capsys, median):
    # A ratio against such a median is undefined; the export is named.
    base = write_side(tmp_path, "base")
    change = write_side(tmp_path, "change")
    write_run(change[2], {"s::a": median, "s::b": 2.0})
    assert gate(base, change) == 2
    err = capsys.readouterr().err
    assert f"cannot read benchmark run {str(change[2])!r}" in err
    assert "benchmark 's::a' has median" in err


def test_new_and_missing_benchmarks_do_not_fail_the_gate(tmp_path, capsys):
    # A renamed benchmark: the old name is missing, the new one is new.
    base = write_side(tmp_path, "base", suite={"s::a": 1.0, "s::b": 2.0, "s::c": 4.0})
    change = write_side(
        tmp_path, "change", _JITTER_NOISE, suite={"s::a": 1.0, "s::b": 2.0, "s::d": 9.0}
    )
    assert gate(base, change) == 0
    out = capsys.readouterr().out
    assert "warning: missing from the change runs (not gated): s::c" in out
    assert "note: new benchmark (not in the base runs): s::d" in out


def bench_run(samples: dict[str, list], runs: int = 5) -> BenchRun:
    return BenchRun(
        samples={name: tuple(values) for name, values in samples.items()}, runs=runs
    )


def test_missing_baseline_benchmark_is_a_warning_not_a_note():
    # A base benchmark absent from the change runs goes on the warning
    # channel, so a partially-run suite is visible.
    comparisons, warnings, notes = compare_runs(
        bench_run({"s::a": [1.0] * 5, "s::b": [2.0] * 5, "s::c": [4.0] * 5}),
        bench_run({"s::a": [1.0] * 5, "s::b": [2.0] * 5}),
        GateConfig(),
    )
    assert [comparison.name for comparison in comparisons] == ["s::a", "s::b"]
    assert warnings == ["missing from the change runs (not gated): s::c"]
    assert notes == []


def test_benchmark_measured_in_too_few_runs_is_a_warning():
    comparisons, warnings, _ = compare_runs(
        bench_run({"s::a": [1.0] * 5, "s::b": [2.0] * 3}),
        bench_run({"s::a": [1.0] * 5, "s::b": [2.0] * 5}),
        GateConfig(),
    )
    assert [comparison.name for comparison in comparisons] == ["s::a"]
    assert warnings == ["measured in 3 base and 5 change runs (not gated): s::b"]


class TestSelect:
    def test_select_restricts_the_gate(self, tmp_path):
        # s::a regresses 5x, but only s::b is gated.
        base = write_side(tmp_path, "base")
        change = write_side(tmp_path, "change", scale={"s::a": 5.0})
        assert gate(base, change) == 1
        assert gate(base, change, "--select", "*::b") == 0

    def test_select_matching_nothing_is_a_hard_error(self, tmp_path, capsys):
        base = write_side(tmp_path, "base")
        change = write_side(tmp_path, "change")
        assert gate(base, change, "--select", "nope*") == 2
        assert "matching --select 'nope*'" in capsys.readouterr().err

    def test_select_medians_filters_by_glob(self):
        run = bench_run({"s::play_1m": [1.0], "s::sleep_1m": [2.0], "other": [3.0]})
        assert compare_module.select_run(run, "*play*").names() == ["s::play_1m"]
        assert compare_module.select_run(run, None) == run


class TestMinEffect:
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_non_finite_or_negative_min_effect_is_rejected(
        self, tmp_path, capsys, value
    ):
        # `--min-effect nan` used to pass a +20% regression: every
        # comparison with nan is false.
        base = write_side(tmp_path, "base")
        change = write_side(tmp_path, "change", scale={"s::a": 1.2})
        with pytest.raises(SystemExit) as exit_info:
            gate(base, change, "--min-effect", value)
        assert exit_info.value.code == 2
        assert "must be a finite fraction >= 0" in capsys.readouterr().err

    def test_zero_min_effect_is_accepted(self, tmp_path):
        base = write_side(tmp_path, "base")
        change = write_side(tmp_path, "change", scale={"s::a": 1.2})
        assert gate(base, change, "--min-effect", "0") == 1


class TestDistributionGate:
    def test_noise_only_perturbation_passes(self, tmp_path):
        # ≤2% run-to-run noise on every benchmark: the ratio CIs straddle 1
        # (and any stray exclusion is blocked by the 5% minimum effect).
        base = write_side(tmp_path, "base")
        change = write_side(tmp_path, "change", _JITTER_NOISE)
        assert gate(base, change) == 0

    def test_30pct_median_regression_fails(self, tmp_path, capsys):
        base = write_side(tmp_path, "base")
        change = write_side(tmp_path, "change", _JITTER_NOISE, scale={"s::a": 1.3})
        assert gate(base, change) == 1
        out = capsys.readouterr().out
        assert "s::a" in out
        assert "ratio CI" in out

    def test_tail_only_regression_fails(self, tmp_path, capsys):
        # One change run of s::a takes 2.6x while its median stays flat:
        # invisible to any median gate, caught by the tail gate.
        base = write_side(tmp_path, "base")
        change = write_side(tmp_path, "change", _JITTER_NOISE, tail="s::a")
        assert gate(base, change) == 1
        assert "tail gate" in capsys.readouterr().out

    def test_gate_verdict_is_deterministic(self, tmp_path, capsys):
        base = write_side(tmp_path, "base")
        change = write_side(tmp_path, "change", _JITTER_NOISE, scale={"s::a": 1.3})
        assert gate(base, change) == 1
        text_a = capsys.readouterr().out
        assert gate(base, change) == 1
        text_b = capsys.readouterr().out
        # Seeded resampling: byte-identical verdicts, intervals included.
        assert text_a == text_b
