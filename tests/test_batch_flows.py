"""Unit tests for the flow adapters (``repro.batch.flows``).

Every adapter must honour one contract: a JSON-safe dict of builtins,
deterministic for a (flow, trace content, config) triple.  The E4
``trace_to_application`` derivation gets its own structural checks.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.flows import FLOW_NAMES, check_config, run_flow, trace_to_application
from repro.trace import Trace
from repro.trace.synthetic import ScatteredHotGenerator, ValueTraceGenerator


@pytest.fixture(scope="module")
def address_trace():
    return ScatteredHotGenerator(accesses=2500, num_blocks=80, seed=11).generate()


@pytest.fixture(scope="module")
def value_trace():
    return ValueTraceGenerator(lines=150, seed=12).generate()


def flow_config_for(flow):
    """A small config per flow, sized for unit-test speed."""
    return {
        "e1_clustering": {"max_banks": 4},
        "e2_compression": {"codec": "bdi"},
        "e3_encoding": {"width": 32},
        "e4_reconfig": {"window_events": 512},
    }[flow]


class TestContract:
    @pytest.mark.parametrize("flow", FLOW_NAMES)
    def test_result_is_json_safe_and_deterministic(
        self, flow, address_trace, value_trace
    ):
        trace = value_trace if flow in ("e2_compression", "e3_encoding") else address_trace
        config = flow_config_for(flow)
        first = run_flow(flow, trace, config)
        second = run_flow(flow, trace, config)
        encoded = json.dumps(first, sort_keys=True)
        assert json.loads(encoded) == first
        assert first == second

    def test_unknown_flow_rejected(self, address_trace):
        with pytest.raises(ValueError, match="unknown flow 'e9_nope'"):
            run_flow("e9_nope", address_trace, {})

    def test_flow_names_exported(self):
        from repro import batch

        assert batch.FLOW_NAMES == FLOW_NAMES
        assert "_flaky" not in FLOW_NAMES

    @pytest.mark.parametrize(
        ("flow", "key", "value"),
        [
            ("e3_encoding", "width", 32.9),
            ("e3_encoding", "width", True),
            ("e3_encoding", "include_functional", "no"),
            ("e3_encoding", "include_functional", 0),
            ("e3_encoding", "train_fraction", "half"),
            ("e4_reconfig", "window_events", 512.0),
            ("e4_reconfig", "region_bytes", "4096"),
            ("e4_reconfig", "num_contexts", False),
            ("e4_reconfig", "l0_size", 2048.5),
            ("e4_reconfig", "context_slots", "two"),
            ("_flaky", "fail_times", 1.5),
            ("e3_encoding", "width", 0),
            ("e4_reconfig", "window_events", 0),
            ("e4_reconfig", "region_bytes", 0),
            ("e4_reconfig", "num_contexts", 0),
            ("e4_reconfig", "l0_size", 0),
            ("e4_reconfig", "context_slots", 0),
        ],
    )
    def test_mistyped_config_value_rejected(
        self, flow, key, value, value_trace, tmp_path
    ):
        config = {key: value}
        if flow == "_flaky":
            config["marker_dir"] = str(tmp_path)
        with pytest.raises(ValueError, match=f"config key '{key}'.*{value!r}"):
            run_flow(flow, value_trace, config)

    @pytest.mark.parametrize("flow", [*FLOW_NAMES, "_flaky"])
    def test_unknown_config_key_rejected(self, flow):
        with pytest.raises(
            ValueError, match=f"flow '{flow}': unknown config key 'bogus'; accepted keys: "
        ):
            check_config(flow, {"bogus": 1})

    def test_required_config_key_rejected_when_missing(self):
        with pytest.raises(ValueError, match="'_flaky': config key 'marker_dir' is required"):
            check_config("_flaky", {})

    def test_e1_config_is_built_and_its_errors_name_the_flow(self):
        assert check_config("e1_clustering", {"max_banks": 2})["flow_config"].max_banks == 2
        with pytest.raises(ValueError, match="'e1_clustering': FlowConfig.max_banks.*1.5"):
            check_config("e1_clustering", {"max_banks": 1.5})

    def test_float_key_accepts_an_int(self, value_trace):
        as_int = run_flow("e3_encoding", value_trace, {"train_fraction": 1})
        as_float = run_flow("e3_encoding", value_trace, {"train_fraction": 1.0})
        assert as_int == as_float


class TestE2Compression:
    def test_rejects_unknown_platform(self, value_trace):
        with pytest.raises(ValueError, match="unknown platform 'dsp'"):
            run_flow("e2_compression", value_trace, {"platform": "dsp"})

    def test_rejects_unknown_codec(self, value_trace):
        with pytest.raises(ValueError, match="unknown codec 'zip'"):
            run_flow("e2_compression", value_trace, {"codec": "zip"})

    def test_codec_reports_compression_ratio(self, value_trace):
        with_codec = run_flow("e2_compression", value_trace, {"codec": "bdi"})
        without = run_flow("e2_compression", value_trace, {"codec": "none"})
        assert "compression_mean_ratio" in with_codec
        assert "compression_mean_ratio" not in without


class TestE3Encoding:
    def test_rejects_valueless_trace(self, address_trace):
        # ScatteredHotGenerator emits no value payloads.
        if any(event.value is not None for event in address_trace):
            pytest.skip("generator grew value payloads; pick another fixture")
        with pytest.raises(ValueError, match="no value payloads"):
            run_flow("e3_encoding", address_trace, {})

    def test_scoreboard_covers_best_encoder(self, value_trace):
        result = run_flow("e3_encoding", value_trace, {})
        assert result["best_encoder"] in result["scoreboard"]


class TestTraceToApplication:
    def test_windows_become_kernels(self, address_trace):
        application = trace_to_application(address_trace, window_events=500)
        expected = -(-len(address_trace.data_accesses()) // 500)
        assert len(application.kernels) == expected

    def test_shared_regions_share_data_set_names(self, address_trace):
        application = trace_to_application(address_trace, window_events=500)
        names = [
            data_set.name
            for kernel in application.kernels
            for data_set in kernel.data_sets
        ]
        assert len(set(names)) < len(names)

    def test_read_write_counts_match_window(self, address_trace):
        application = trace_to_application(address_trace, window_events=10**9)
        (kernel,) = application.kernels
        data = address_trace.data_accesses()
        total = sum(ds.reads + ds.writes for ds in kernel.data_sets)
        assert total == len(data)

    def test_contexts_bounded(self, address_trace):
        application = trace_to_application(
            address_trace, window_events=500, num_contexts=3
        )
        assert all(0 <= kernel.context < 3 for kernel in application.kernels)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"window_events": 0}, "window_events"),
            ({"region_bytes": -1}, "region_bytes"),
            ({"num_contexts": 0}, "num_contexts"),
        ],
    )
    def test_rejects_nonpositive_parameters(self, address_trace, kwargs, message):
        with pytest.raises(ValueError, match=message):
            trace_to_application(address_trace, **kwargs)

    def test_rejects_dataless_trace(self):
        with pytest.raises(ValueError, match="no data accesses"):
            trace_to_application(Trace.from_events([], name="void"))

    def test_schedulers_diverge_or_match_but_both_run(self, address_trace):
        naive = run_flow("e4_reconfig", address_trace, {"scheduler": "naive"})
        energy = run_flow("e4_reconfig", address_trace, {"scheduler": "energy"})
        assert energy["total_energy"] <= naive["total_energy"]
