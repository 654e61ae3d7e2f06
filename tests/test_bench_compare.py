"""Unit tests for the benchmark-regression gate (``benchmarks/compare.py``).

The gate is a standalone script (CI invokes it with ``python``), so it is
loaded here via ``importlib`` rather than imported as a package module.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.benchstats import BenchRecord, BenchRun, GateConfig, parse_baseline
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, RunManifest

_COMPARE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE_PATH)
compare_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_module)


def write_run(
    path: Path,
    medians: dict[str, float],
    manifest: dict | None = None,
    samples: dict[str, list] | None = None,
) -> Path:
    """Write a minimal pytest-benchmark JSON export (optionally with manifest).

    ``samples`` adds per-iteration raw data (the ``--benchmark-save-data``
    layout) for the benchmarks it names; others stay median-only.
    """
    payload: dict = {
        "benchmarks": [
            {
                "fullname": name,
                "name": name,
                "stats": dict(
                    {"median": median},
                    **(
                        {"data": samples[name]}
                        if samples and name in samples
                        else {}
                    ),
                ),
            }
            for name, median in medians.items()
        ]
    }
    if manifest is not None:
        payload["manifest"] = manifest
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def baseline_file(tmp_path):
    run = write_run(tmp_path / "run.json", {"suite::a": 1.0, "suite::b": 2.0, "suite::c": 4.0})
    baseline = tmp_path / "baseline.json"
    compare_module.update_baseline(run, baseline)
    return baseline


def test_update_baseline_stores_sorted_medians(baseline_file):
    data = json.loads(baseline_file.read_text())
    assert data["schema"] == 2
    assert list(data["benchmarks"]) == ["suite::a", "suite::b", "suite::c"]
    assert data["benchmarks"]["suite::c"]["median_seconds"] == 4.0
    # Samples are suite-normalized: suite median is 2.0 here.
    assert data["suite_median_seconds"] == 2.0
    assert data["benchmarks"]["suite::c"]["samples"] == [2.0]


def test_identical_run_passes(tmp_path, baseline_file):
    run = write_run(tmp_path / "cand.json", {"suite::a": 1.0, "suite::b": 2.0, "suite::c": 4.0})
    assert compare_module.main([str(run), "--baseline", str(baseline_file)]) == 0


def test_uniformly_slower_machine_passes_normalized(tmp_path, baseline_file):
    # 3x slower across the board: raw medians regress, normalized shape doesn't.
    run = write_run(tmp_path / "cand.json", {"suite::a": 3.0, "suite::b": 6.0, "suite::c": 12.0})
    assert compare_module.main([str(run), "--baseline", str(baseline_file)]) == 0


def test_synthetic_regression_fails_the_gate(tmp_path, baseline_file, capsys):
    # suite::a slows 3x while the rest of the suite is unchanged: its
    # suite-normalized share doubles, well past the 25% threshold.
    run = write_run(tmp_path / "cand.json", {"suite::a": 3.0, "suite::b": 2.0, "suite::c": 4.0})
    assert compare_module.main([str(run), "--baseline", str(baseline_file)]) == 1
    out = capsys.readouterr().out
    assert "suite::a" in out
    assert "regression" in out


def test_new_and_missing_benchmarks_do_not_fail_the_gate(
    tmp_path, baseline_file, capsys
):
    run = write_run(tmp_path / "cand.json", {"suite::a": 1.0, "suite::b": 2.0, "suite::d": 9.0})
    assert compare_module.main([str(run), "--baseline", str(baseline_file)]) == 0
    out = capsys.readouterr().out
    assert "warning: missing from candidate run (not gated): suite::c" in out
    assert "note: new benchmark (no baseline yet): suite::d" in out


def bench_run(samples: dict[str, list]) -> BenchRun:
    """A run whose records carry ``samples`` as already-normalized data."""
    return BenchRun(
        records={
            name: BenchRecord(name=name, median_seconds=1.0, samples=tuple(values))
            for name, values in samples.items()
        },
        suite_median_seconds=1.0,
    )


def test_missing_baseline_benchmark_is_a_warning_not_a_note():
    # Regression test: a baseline entry absent from the candidate run used
    # to surface as an easily-overlooked informational note; it must be
    # reported on the warning channel so a partially-run suite is visible.
    regressions, warnings, notes = compare_module.compare_distributions(
        bench_run({"suite::a": [1.0] * 5, "suite::b": [2.0] * 5, "suite::c": [4.0] * 5}),
        bench_run({"suite::a": [1.0] * 5, "suite::b": [2.0] * 5}),
        GateConfig(),
    )
    assert regressions == []
    assert warnings == ["missing from candidate run (not gated): suite::c"]
    assert notes == []


def test_empty_candidate_run_is_a_hard_error(tmp_path, baseline_file, capsys):
    # Regression test for the silent-pass hole: a candidate export with no
    # benchmarks at all (broken job, empty JSON) used to exit 0 with only
    # per-name notes.  The gate must refuse to pass vacuously.
    run = write_run(tmp_path / "cand.json", {})
    assert compare_module.main([str(run), "--baseline", str(baseline_file)]) == 2
    err = capsys.readouterr().err
    assert "no gated benchmarks" in err
    assert "refusing to pass vacuously" in err


def test_missing_baseline_is_a_hard_error(tmp_path):
    run = write_run(tmp_path / "cand.json", {"suite::a": 1.0})
    assert (
        compare_module.main([str(run), "--baseline", str(tmp_path / "nope.json")]) == 2
    )


def test_committed_baseline_matches_the_benchmark_suite():
    """The repo's committed baseline must parse and cover the engine benchmark."""
    baseline = parse_baseline(json.loads(compare_module.DEFAULT_BASELINE.read_text()))
    assert any("test_columnar_play_1m" in name for name in baseline.records)
    assert all(record.median_seconds > 0 for record in baseline.records.values())


def test_fallback_note_names_its_benchmarks(tmp_path, baseline_file, capsys):
    # Single-sample benchmarks (single-round by design) are judged by the
    # median threshold; the note says which ones.
    run = write_run(tmp_path / "cand.json", {"suite::a": 1.0, "suite::b": 2.0, "suite::c": 4.0})
    assert compare_module.main([str(run), "--baseline", str(baseline_file)]) == 0
    out = capsys.readouterr().out
    assert (
        "note: 3 benchmark(s) gated by the 25% median threshold (fewer than 4 "
        "samples on one side): suite::a, suite::b, suite::c"
    ) in out


class TestSelect:
    def test_select_restricts_the_gate(self, tmp_path, baseline_file):
        # suite::a regresses 5x, but only suite::b is gated.
        run = write_run(
            tmp_path / "cand.json", {"suite::a": 5.0, "suite::b": 2.0, "suite::c": 4.0}
        )
        args = [str(run), "--baseline", str(baseline_file)]
        assert compare_module.main(args) == 1
        assert compare_module.main(args + ["--select", "*::b"]) == 0

    def test_select_matching_nothing_is_a_hard_error(self, tmp_path, baseline_file):
        run = write_run(tmp_path / "cand.json", {"suite::a": 1.0})
        assert (
            compare_module.main(
                [str(run), "--baseline", str(baseline_file), "--select", "nope*"]
            )
            == 2
        )

    def test_select_medians_filters_by_glob(self):
        run = bench_run({"suite::play_1m": [1.0], "suite::sleep_1m": [2.0], "other": [3.0]})
        assert compare_module.select_run(run, "*play*").names() == ["suite::play_1m"]
        assert compare_module.select_run(run, None) == run


#: Deterministic per-iteration jitter patterns (fractional deviations from
#: the benchmark's true median).  Both stay within ±2%, so two runs drawn
#: from them differ by measurement noise only.
_JITTER_BASE = (-0.02, -0.01, -0.005, 0.0, 0.005, 0.01, 0.015, 0.02)
_JITTER_NOISE = (-0.015, -0.02, 0.0, 0.005, -0.01, 0.02, 0.01, 0.015)

_SUITE = {"s::a": 1.0, "s::b": 2.0, "s::c": 3.0, "s::d": 4.0, "s::e": 5.0}


def _suite_samples(jitter, scale: dict | None = None, tail: str | None = None):
    """Per-benchmark sample lists for the synthetic five-benchmark suite."""
    scale = scale or {}
    samples = {}
    for name, base in _SUITE.items():
        values = [base * (1.0 + j) * scale.get(name, 1.0) for j in jitter]
        if name == tail:
            # Inflate the slowest iteration only: p99 roughly doubles
            # while the median stays flat.
            values[values.index(max(values))] = base * 2.6
        samples[name] = sorted(values)
    return samples


def _suite_run(path: Path, jitter, scale=None, tail=None) -> Path:
    samples = _suite_samples(jitter, scale=scale, tail=tail)
    medians = {
        name: values[len(values) // 2] for name, values in samples.items()
    }
    return write_run(path, medians, samples=samples)


class TestDistributionGate:
    """The pinned acceptance triple plus baseline-schema handling."""

    @pytest.fixture
    def v2_baseline(self, tmp_path):
        run = _suite_run(tmp_path / "base_run.json", _JITTER_BASE)
        baseline = tmp_path / "baseline.json"
        compare_module.update_baseline(run, baseline)
        assert json.loads(baseline.read_text())["schema"] == 2
        return baseline

    def test_noise_only_perturbation_passes(self, tmp_path, v2_baseline):
        # ≤2% iteration noise on every benchmark: the ratio CIs straddle 1
        # (and any stray exclusion is blocked by the 5% minimum effect).
        run = _suite_run(tmp_path / "cand.json", _JITTER_NOISE)
        assert compare_module.main([str(run), "--baseline", str(v2_baseline)]) == 0

    def test_30pct_median_regression_fails(self, tmp_path, v2_baseline, capsys):
        run = _suite_run(
            tmp_path / "cand.json", _JITTER_NOISE, scale={"s::a": 1.3}
        )
        assert compare_module.main([str(run), "--baseline", str(v2_baseline)]) == 1
        out = capsys.readouterr().out
        assert "s::a" in out
        assert "ratio CI" in out

    def test_tail_only_regression_fails(self, tmp_path, v2_baseline, capsys):
        # p99 more than doubles while the median stays flat: invisible to
        # any median gate, caught by the tail gate.
        run = _suite_run(tmp_path / "cand.json", _JITTER_NOISE, tail="s::a")
        assert compare_module.main([str(run), "--baseline", str(v2_baseline)]) == 1
        out = capsys.readouterr().out
        assert "tail gate" in out

    def test_gate_verdict_is_deterministic(self, tmp_path, v2_baseline, capsys):
        run = _suite_run(
            tmp_path / "cand.json", _JITTER_NOISE, scale={"s::a": 1.3}
        )
        args = [str(run), "--baseline", str(v2_baseline)]
        assert compare_module.main(args) == 1
        text_a = capsys.readouterr().out
        assert compare_module.main(args) == 1
        text_b = capsys.readouterr().out
        # Seeded resampling: byte-identical verdicts, intervals included.
        assert text_a == text_b

    def test_v1_baseline_is_rejected_naming_the_refresh(self, tmp_path):
        v1 = tmp_path / "baseline.json"
        v1.write_text(
            json.dumps({"note": "old", "medians": {"s::a": 1.0, "s::b": 2.0}})
        )
        run = write_run(tmp_path / "cand.json", {"s::a": 1.0, "s::b": 2.0})
        with pytest.raises(
            ValueError, match=r"schema 1 is unsupported.*compare\.py <run\.json> --update-baseline"
        ):
            compare_module.main([str(run), "--baseline", str(v1)])

    def test_update_baseline_migrates_v1_to_v2(self, tmp_path):
        v1 = tmp_path / "baseline.json"
        v1.write_text(json.dumps({"medians": {"s::a": 1.0}}))
        run = _suite_run(tmp_path / "run.json", _JITTER_BASE)
        compare_module.update_baseline(run, v1)
        data = json.loads(v1.read_text())
        assert data["schema"] == 2
        assert len(data["benchmarks"]["s::a"]["samples"]) == len(_JITTER_BASE)

    def test_future_schema_is_rejected(self, tmp_path):
        futuristic = tmp_path / "baseline.json"
        futuristic.write_text(json.dumps({"schema": 99, "benchmarks": {}}))
        run = write_run(tmp_path / "cand.json", {"s::a": 1.0})
        with pytest.raises(ValueError, match="unsupported"):
            compare_module.main([str(run), "--baseline", str(futuristic)])


def manifest_payload(**overrides) -> dict:
    payload = {
        "package_version": "1.0",
        "python_version": "3.12.0",
        "platform": "linux",
        "config_hash": None,
        "seed": None,
        "extra": {},
        "schema": 2,
    }
    payload.update(overrides)
    return payload


class TestManifestDrift:
    def test_identical_manifests_produce_no_drift(self):
        assert compare_module.manifest_drift(manifest_payload(), manifest_payload()) == []

    def test_run_specific_keys_never_count_as_drift(self):
        drift = compare_module.manifest_drift(
            manifest_payload(seed=1, config_hash="aaaa", extra={"k": "x"}),
            manifest_payload(seed=2, config_hash="bbbb", extra={"k": "y"}),
        )
        assert drift == []

    def test_environment_drift_is_a_note_not_a_failure(self, tmp_path, capsys):
        baseline_run = write_run(
            tmp_path / "base_run.json",
            {"suite::a": 1.0, "suite::b": 2.0},
            manifest=manifest_payload(python_version="3.9.1"),
        )
        baseline = tmp_path / "baseline.json"
        compare_module.update_baseline(baseline_run, baseline)
        candidate = write_run(
            tmp_path / "cand.json",
            {"suite::a": 1.0, "suite::b": 2.0},
            manifest=manifest_payload(python_version="3.13.0"),
        )
        assert compare_module.main([str(candidate), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "manifest drift on 'python_version'" in out
        assert "'3.9.1'" in out and "'3.13.0'" in out

    def test_missing_baseline_manifest_yields_one_explanatory_note(self, capsys):
        notes = compare_module.manifest_drift(None, manifest_payload())
        assert len(notes) == 1
        assert "--update-baseline" in notes[0]

    def test_missing_candidate_manifest_yields_one_explanatory_note(self):
        notes = compare_module.manifest_drift(manifest_payload(), None)
        assert notes == ["candidate run carries no manifest; environment drift not checked"]

    def test_update_baseline_embeds_the_candidate_manifest(self, tmp_path):
        run = write_run(
            tmp_path / "run.json",
            {"suite::a": 1.0},
            manifest=manifest_payload(package_version="9.9"),
        )
        baseline = tmp_path / "baseline.json"
        compare_module.update_baseline(run, baseline)
        stored = json.loads(baseline.read_text())["manifest"]
        assert stored["package_version"] == "9.9"

    def test_update_baseline_falls_back_to_current_environment(self, tmp_path):
        # repro is importable in the test environment, so a manifest-less
        # candidate still gets the live environment's manifest embedded.
        run = write_run(tmp_path / "run.json", {"suite::a": 1.0})
        baseline = tmp_path / "baseline.json"
        compare_module.update_baseline(run, baseline)
        stored = json.loads(baseline.read_text()).get("manifest")
        assert stored is not None

    def test_committed_baseline_carries_a_manifest(self):
        manifest = compare_module.load_manifest(compare_module.DEFAULT_BASELINE)
        assert manifest is not None
        # Exactly a current run manifest: no stale keys survive a refresh.
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert RunManifest.from_dict(manifest).to_dict() == manifest
