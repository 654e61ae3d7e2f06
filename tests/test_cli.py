"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not_a_kernel"])


class TestCommands:
    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "crc32" in out

    def test_run(self, capsys):
        assert main(["run", "histogram"]) == 0
        out = capsys.readouterr().out
        assert "instructions:" in out
        assert "footprint:" in out

    def test_run_save_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.npz"
        assert main(["run", "histogram", "--save-trace", str(path)]) == 0
        assert path.exists()

    def test_disasm(self, capsys):
        assert main(["disasm", "crc32"]) == 0
        out = capsys.readouterr().out
        assert "halt" in out and ".text" in out

    def test_profile_kernel(self, capsys):
        assert main(["profile", "histogram", "--block-size", "16", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "spatial_locality" in out
        assert "hottest" in out

    def test_profile_saved_trace(self, tmp_path, capsys):
        path = tmp_path / "t.npz"
        main(["run", "histogram", "--save-trace", str(path)])
        capsys.readouterr()
        assert main(["profile", str(path)]) == 0
        assert "accesses" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["profile", "phases", "optimize"])
    def test_trace_commands_accept_synth_specs(self, command, capsys):
        assert main([command, "synth:hot_cold:accesses=2000,seed=7"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        ("command", "flag", "value"),
        [
            ("optimize", "--banks", "0"),
            ("optimize", "--block-size", "-32"),
            ("profile", "--block-size", "0"),
            ("profile", "--top", "-1"),
            ("phases", "--window", "0"),
            ("phases", "--clusters", "0"),
            ("phases", "--block-size", "zero"),
        ],
    )
    def test_nonpositive_numeric_flag_is_a_usage_error(
        self, command, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "histogram", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be a positive integer" in err

    def test_profile_unknown_source_exits(self):
        with pytest.raises(SystemExit, match="neither"):
            main(["profile", "no_such_thing"])

    def test_optimize(self, capsys):
        assert main(["optimize", "table_lookup", "--block-size", "16", "--banks", "4"]) == 0
        out = capsys.readouterr().out
        assert "clustered+partitioned" in out
        assert "clustering saves" in out

    def test_compress(self, capsys):
        assert main(["compress", "idct_rows", "--platform", "risc", "--codec", "bdi"]) == 0
        out = capsys.readouterr().out
        assert "bdi" in out and "saving" in out

    def test_encode(self, capsys):
        assert main(["encode", "histogram"]) == 0
        out = capsys.readouterr().out
        assert "functional" in out and "selected" in out

    def test_phases(self, capsys):
        assert main(["phases", "bubble_sort", "--window", "1000"]) == 0
        out = capsys.readouterr().out
        assert "phases in" in out


class TestCodecompCommand:
    def test_codecomp(self, capsys):
        from repro.cli import main

        assert main(["codecomp", "firmware"]) == 0
        out = capsys.readouterr().out
        assert "size reduction" in out and "slowdown" in out

    def test_bist(self, capsys):
        from repro.cli import main

        assert main(["bist", "--width", "16", "--patterns", "128"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "BIST" in out


class TestLintCommand:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Docs."""\n\n__all__ = ["f"]\n\n\ndef f(x):\n    """Docs."""\n    return x\n')
        assert main(["lint", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_lint_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text('def f(x):\n    raise ValueError("static")\n')
        assert main(["lint", str(dirty), "--select", "CON001"]) == 1
        out = capsys.readouterr().out
        assert "CON001" in out and "dirty.py:2" in out

    def test_lint_installed_package_is_clean(self, capsys):
        # The product surface of the self-check: the shipped package lints
        # clean with no arguments.
        assert main(["lint"]) == 0

    def test_lint_json_schema_round_trips(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text('def f(x):\n    raise ValueError("static")\n')
        assert main(["lint", str(dirty), "--format", "json", "--select", "CON001"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        [finding] = payload["findings"]
        assert finding["rule"] == "CON001"
        assert finding["name"] == "valueerror-without-value"
        assert finding["path"].endswith("dirty.py")
        assert finding["line"] == 2
        assert isinstance(finding["message"], str) and finding["message"]
        assert "CON001" in payload["rules"]

    def test_lint_select_multiple_rules(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text('def f(x, b=[]):\n    raise ValueError("static")\n')
        assert main(["lint", str(dirty), "--select", "CON001,CON003"]) == 1
        out = capsys.readouterr().out
        assert "CON001" in out and "CON003" in out

    def test_lint_unknown_rule_exits_with_error(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("")
        with pytest.raises(SystemExit, match="BOGUS"):
            main(["lint", str(target), "--select", "BOGUS"])


class TestSweep:
    """The ``repro sweep`` batch front-end."""

    SOURCE = "synth:strided_sweep:sweeps=2,seed=3"

    def sweep(self, tmp_path, *extra):
        return main(
            [
                "sweep",
                self.SOURCE,
                "--flow",
                "e1_clustering",
                "--set",
                "max_banks=2",
                "--cache-dir",
                str(tmp_path / "cache"),
                *extra,
            ]
        )

    def test_sweep_table_output(self, tmp_path, capsys):
        assert self.sweep(tmp_path) == 0
        captured = capsys.readouterr()
        assert "miss" in captured.out
        assert "1 tasks: 0 cache hits, 1 misses" in captured.err

    def test_sweep_warm_cache_reports_hits(self, tmp_path, capsys):
        assert self.sweep(tmp_path) == 0
        capsys.readouterr()
        assert self.sweep(tmp_path) == 0
        captured = capsys.readouterr()
        assert "hit" in captured.out
        assert "1 cache hits, 0 misses" in captured.err

    def test_sweep_json_output_carries_results(self, tmp_path, capsys):
        import json

        assert self.sweep(tmp_path, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["misses"] == 1
        assert len(payload["results"]) == 1
        assert "variants" in payload["results"][0]

    def test_sweep_csv_output_has_header_and_rows(self, tmp_path, capsys):
        assert self.sweep(tmp_path, "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("flow,trace,config_hash")
        assert len(lines) == 2

    def test_sweep_no_cache_never_hits(self, tmp_path, capsys):
        assert self.sweep(tmp_path, "--no-cache") == 0
        capsys.readouterr()
        assert self.sweep(tmp_path, "--no-cache") == 0
        assert "0 cache hits" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_sweep_config_grid_multiplies_tasks(self, tmp_path, capsys):
        assert self.sweep(tmp_path, "--set", "max_banks=4") == 0
        assert "2 tasks" in capsys.readouterr().err

    def test_sweep_obs_log_written(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert self.sweep(tmp_path, "--obs-out", str(log)) == 0
        capsys.readouterr()
        assert log.exists()
        assert main(["obs", str(log)]) == 0

    def test_sweep_failed_task_reports_cause_chain(self, tmp_path, capsys):
        # A task that fails (here: a config key FlowConfig rejects) must
        # surface the underlying exception, not just "failed after N attempts".
        assert (
            main(
                [
                    "sweep",
                    self.SOURCE,
                    "--flow",
                    "e1_clustering",
                    "--set",
                    "bogus_knob=1",
                    "--retries",
                    "0",
                    "--no-cache",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "failed after 1 attempts" in err
        assert "caused by: TypeError" in err
        assert "bogus_knob" in err

    def test_sweep_bad_source_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "no_such_kernel", "--cache-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_malformed_set_exits_2(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    self.SOURCE,
                    "--set",
                    "max_banks",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 2
        )
        assert "expected key=value" in capsys.readouterr().err


class TestBenchreport:
    @staticmethod
    def _write_run(path, scale=1.0):
        import json

        jitter = (-0.02, -0.01, 0.0, 0.005, 0.01, 0.015, 0.02, -0.005)
        benchmarks = []
        for index, name in enumerate(["s::a", "s::b", "s::c"]):
            base = 0.01 * (index + 1) * (scale if name == "s::a" else 1.0)
            data = sorted(base * (1.0 + j) for j in jitter)
            benchmarks.append(
                {
                    "fullname": name,
                    "name": name,
                    "stats": {"median": data[len(data) // 2], "data": data},
                }
            )
        path.write_text(json.dumps({"benchmarks": benchmarks}))
        return path

    def test_benchreport_writes_standalone_html(self, tmp_path, capsys):
        run = self._write_run(tmp_path / "run.json")
        out = tmp_path / "report.html"
        assert main(["benchreport", str(run), "--out", str(out)]) == 0
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html  # inline distribution strips
        assert "prefers-color-scheme" in html  # selected dark mode
        assert "s::a" in html and "s::c" in html
        assert "report written to" in capsys.readouterr().out

    def test_benchreport_with_baseline_gates_and_draws_two_series(
        self, tmp_path, capsys
    ):
        import importlib.util
        import json
        from pathlib import Path

        compare_path = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
        )
        spec = importlib.util.spec_from_file_location("bench_compare_cli", compare_path)
        compare_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(compare_module)

        baseline = tmp_path / "baseline.json"
        compare_module.update_baseline(
            self._write_run(tmp_path / "base_run.json"), baseline
        )
        run = self._write_run(tmp_path / "run.json", scale=1.5)
        out = tmp_path / "report.html"
        summary = tmp_path / "summary.json"
        assert (
            main(
                [
                    "benchreport",
                    str(run),
                    "--baseline",
                    str(baseline),
                    "--out",
                    str(out),
                    "--json-out",
                    str(summary),
                ]
            )
            == 0
        )
        html = out.read_text()
        assert "baseline" in html and "candidate" in html
        assert "regressed" in html  # s::a is 50% slower: badge + note
        payload = json.loads(summary.read_text())
        assert payload["schema"] == 1
        assert payload["benchmarks"]["s::a"]["median_regressed"] is True
        assert payload["benchmarks"]["s::b"]["median_regressed"] is False
        assert "regressed vs baseline" in capsys.readouterr().out

    def test_benchreport_embeds_obs_stage_timings(self, tmp_path, capsys):
        run = self._write_run(tmp_path / "run.json")
        log = tmp_path / "run.jsonl"
        assert main(["optimize", "dot_product", "--obs-out", str(log)]) == 0
        capsys.readouterr()
        out = tmp_path / "report.html"
        assert (
            main(["benchreport", str(run), "--obs", str(log), "--out", str(out)])
            == 0
        )
        html = out.read_text()
        assert "Per-stage timings" in html
        assert "trace_load" in html

    def test_benchreport_unreadable_run_exits(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read benchmark run"):
            main(["benchreport", str(bad)])
