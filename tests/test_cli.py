"""Unit tests for the command-line interface."""

import json
import re

import pytest

from repro.batch.flows import FLOW_NAMES
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

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_trace_pack_nonpositive_chunk_size_is_a_usage_error(
        self, tmp_path, capsys, value
    ):
        out = tmp_path / "packed.tstore"
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "pack", "synth:hot_cold:accesses=100", str(out),
                  "--chunk-size", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --chunk-size: must be a positive integer" in err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_bist_nonpositive_patterns_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["bist", "--width", "8", "--patterns", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --patterns: must be a positive integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--width", "3", "width must be a power of two >= 4, got 3"),
            ("--seed", "0", "LFSR seed must be non-zero, got 0"),
        ],
    )
    def test_bist_invalid_circuit_exits_with_error(self, capsys, flag, value, message):
        with pytest.raises(SystemExit, match=re.escape(f"error: {message}")):
            main(["bist", flag, value])
        assert capsys.readouterr().out == ""


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
        # A task that fails inside the worker (here: the encoding flow on a
        # trace with no value payloads) must surface the underlying
        # exception, not just "failed after N attempts".
        assert (
            main(
                [
                    "sweep",
                    self.SOURCE,
                    "--flow",
                    "e3_encoding",
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
        assert "caused by: ValueError" in err
        assert "no value payloads" in err

    @pytest.mark.parametrize(
        ("flow", "assignment", "key"),
        [
            ("e1_clustering", "bogus_key=3", "bogus_key"),
            ("e1_clustering", "max_banks=1.5", "max_banks"),
            ("e1_clustering", "strategy=affinty", "strategy"),
            ("e2_compression", "codex=bdi", "codex"),
            ("e2_compression", "platform=dsp", "platform"),
            ("e2_compression", "codec=zip", "codec"),
            ("e3_encoding", "widht=16", "widht"),
            ("e4_reconfig", "schedular=naive", "schedular"),
            ("e4_reconfig", "scheduler=greedy", "scheduler"),
        ],
    )
    def test_sweep_bad_config_fails_once_naming_the_key(
        self, tmp_path, capsys, flow, assignment, key
    ):
        # A config error is deterministic: the parent rejects it before any
        # task runs, so it is never retried.
        argv = ["sweep", self.SOURCE, "--flow", flow, "--set", assignment]
        assert main(argv + ["--no-cache", "--cache-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: flow {flow!r}" in err
        assert key in err
        assert "failed after" not in err

    @pytest.mark.parametrize(
        ("flow", "assignment"),
        [("e3_encoding", "width=0"), ("e4_reconfig", "window_events=0")],
    )
    def test_sweep_nonpositive_count_fails_once_naming_the_key(
        self, tmp_path, capsys, flow, assignment
    ):
        argv = ["sweep", "synth:value:lines=16", "--flow", flow, "--set", assignment]
        assert main(argv + ["--no-cache", "--cache-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        key = assignment.split("=")[0]
        assert f"error: flow {flow!r}: config key {key!r} must be positive, got 0" in err
        assert "attempts" not in err

    def test_sweep_out_of_range_payload_names_the_word(self, tmp_path, capsys):
        source = tmp_path / "neg.trc"
        source.write_text("0 W D 0x0 4 0x5\n1 W D 0x4 4 -0x2\n")
        argv = ["sweep", str(source), "--flow", "e3_encoding", "--retries", "0"]
        assert main(argv + ["--no-cache", "--cache-dir", str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert (
            "caused by: ValueError: trace 'neg': word 1 is -2, outside the 32-bit "
            "bus range [0, 2**32)"
        ) in err
        assert "hamming" not in err and "OverflowError" not in err

    def test_sweep_bad_payload_runs_once_without_retry(self, tmp_path, capsys):
        from repro.obs import load_shards

        source = tmp_path / "neg.trc"
        source.write_text("0 W D 0x0 4 0x5\n1 W D 0x4 4 -0x2\n")
        obs_dir = tmp_path / "obs"
        argv = ["sweep", str(source), "--flow", "e3_encoding", "--obs-dir", str(obs_dir)]
        assert main(argv + ["--no-cache", "--cache-dir", str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert "failed after 1 attempts" in err
        assert "(1 of 1 tasks failed on bad input, not retried)" in err
        assert "exhausted retries" not in err
        assert "caused by: ValueError: trace 'neg': word 1 is -2" in err
        (parent,) = [shard for shard in load_shards(obs_dir) if shard.role == "parent"]
        events = [event["event"] for event in parent.lifecycle]
        assert events == ["submitted", "failed"]

    def test_sweep_unknown_synth_parameter_exits_2(self, tmp_path, capsys):
        source = "synth:hot_cold:accesses=500,seed=1,bogus=3"
        assert main(["sweep", source, "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "generator 'hot_cold' has no parameter 'bogus'" in err
        assert "accesses" in err

    @pytest.mark.parametrize(
        ("assignment", "message"),
        [
            ("accesses=-5", "HotColdGenerator: accesses must be an integer >= 1, got -5"),
            ("hot_fraction=1.5", "HotColdGenerator: hot_fraction must be a number in [0, 1]"),
        ],
    )
    def test_bad_synth_value_fails_before_any_task(
        self, tmp_path, capsys, assignment, message
    ):
        source = f"synth:hot_cold:{assignment},seed=1"
        assert main(["sweep", source, "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "failed after" not in err
        for command in ("profile", "optimize"):
            with pytest.raises(SystemExit, match=re.escape(f"error: {message}")):
                main([command, source])

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


class TestFileBackedSources:
    """A ``.npz`` and a ``.tstore`` packed from one ``synth:`` spec give the
    spec's results in every command that takes a SOURCE."""

    SPEC = "synth:value:lines=64,seed=3"

    @pytest.fixture
    def sources(self, tmp_path, capsys):
        from repro.batch import TraceSpec
        from repro.trace.io import save_npz

        npz = tmp_path / "value.npz"
        save_npz(TraceSpec.from_source(self.SPEC).load(), npz)
        store = tmp_path / "value.tstore"
        assert main(["trace", "pack", self.SPEC, str(store)]) == 0
        capsys.readouterr()
        return [self.SPEC, str(npz), str(store)]

    def outputs(self, capsys, sources, command, *flags) -> list:
        outputs = []
        for source in sources:
            assert main([command, source, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        return outputs

    @pytest.mark.parametrize("command", ["profile", "phases", "optimize"])
    def test_trace_commands_agree(self, sources, capsys, command):
        first, *rest = self.outputs(capsys, sources, command, "--block-size", "16")
        assert first and all(output == first for output in rest)

    def test_trace_pack_digests_agree(self, sources, tmp_path, capsys):
        summaries = []
        for index, source in enumerate(sources):
            assert main(["trace", "pack", source, str(tmp_path / f"re{index}.tstore")]) == 0
            packed, *rest = capsys.readouterr().out.splitlines()
            summaries.append([packed.rsplit(" into ", 1)[0], *rest])
        assert all(summary == summaries[0] for summary in summaries)
        assert any("trace_digest" in line for line in summaries[0])

    @pytest.mark.parametrize("flow", FLOW_NAMES)
    def test_sweep_results_agree(self, sources, capsys, flow):
        outputs = self.outputs(
            capsys, sources, "sweep", "--flow", flow, "--no-cache", "--format", "json"
        )
        first, *rest = [json.loads(output)["results"] for output in outputs]
        assert first and all(results == first for results in rest)


class TestBenchreport:
    @staticmethod
    def _write_runs(directory, side, scale=1.0, runs=5):
        """One export per run: s::a scaled by ``scale``, s::b and s::c not."""
        import json

        jitter = (-0.02, 0.0, 0.01, -0.01, 0.02, 0.015, -0.015, 0.005)
        paths = []
        for run in range(runs):
            benchmarks = []
            for index, name in enumerate(["s::a", "s::b", "s::c"]):
                base = 0.01 * (index + 1) * (scale if name == "s::a" else 1.0)
                median = base * (1.0 + jitter[(run + index) % len(jitter)])
                benchmarks.append(
                    {"fullname": name, "name": name, "stats": {"median": median}}
                )
            path = directory / f"{side}-{run}.json"
            path.write_text(json.dumps({"benchmarks": benchmarks}))
            paths.append(str(path))
        return paths

    def test_benchreport_writes_standalone_html(self, tmp_path, capsys):
        runs = self._write_runs(tmp_path, "change", runs=1)
        out = tmp_path / "report.html"
        assert main(["benchreport", *runs, "--out", str(out)]) == 0
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html  # inline distribution strips
        assert "prefers-color-scheme" in html  # selected dark mode
        assert "s::a" in html and "s::c" in html
        assert "report written to" in capsys.readouterr().out

    def test_benchreport_with_baseline_gates_and_draws_two_series(
        self, tmp_path, capsys
    ):
        import json

        base = self._write_runs(tmp_path, "base", runs=4)
        change = self._write_runs(tmp_path, "change", scale=1.5, runs=5)
        out = tmp_path / "report.html"
        summary = tmp_path / "summary.json"
        assert (
            main(
                [
                    "benchreport",
                    *change,
                    "--baseline",
                    *base,
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
        assert payload["schema"] == 2
        assert payload["benchmarks"]["s::a"]["count"] == 5  # one sample per run
        assert payload["benchmarks"]["s::a"]["median_regressed"] is True
        assert payload["benchmarks"]["s::b"]["median_regressed"] is False
        assert "regressed vs the base runs" in capsys.readouterr().out

    def test_benchreport_with_too_few_base_runs_exits(self, tmp_path):
        base = self._write_runs(tmp_path, "base", runs=3)
        change = self._write_runs(tmp_path, "change")
        with pytest.raises(SystemExit, match="3 base and 5 change runs"):
            main(
                ["benchreport", *change, "--baseline", *base,
                 "--out", str(tmp_path / "report.html")]
            )

    def test_benchreport_embeds_obs_stage_timings(self, tmp_path, capsys):
        (run,) = self._write_runs(tmp_path, "change", runs=1)
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
