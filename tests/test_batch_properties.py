"""Property-based tests (hypothesis) for the batch sweep contracts.

The invariant the whole subsystem is built around: for *any* list of
(trace, config) tasks, running the sweep serially, running it across
worker processes, and re-running it against a warm cache all merge to
bit-identical results in submission order.  Unit tests sample this on one
fixed sweep; here hypothesis drives it over arbitrary small traces and
config grids.  A second property pins config ingress: any ``--set``
mapping either types into the config the task hashes, or fails once, in
the parent, before any task is submitted.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import ResultCache, SweepTask, TraceSpec, run_sweep
from repro.batch import runner
from repro.batch.flows import FLOW_NAMES, typed_config
from repro.batch.spec import parse_scalar
from repro.obs.manifest import config_fingerprint
from repro.trace import AccessKind, AddressSpace, MemoryAccess, Trace

# Small DATA-space traces with deterministic content: addresses in a 4 KiB
# window, power-of-two sizes, mixed reads/writes, no value payloads (the
# e1 flow ignores them).
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4096),  # address
        st.sampled_from([1, 2, 4, 8]),  # size
        st.booleans(),  # is_write
    ),
    min_size=1,
    max_size=48,
)

configs = st.lists(
    st.fixed_dictionaries(
        {
            "max_banks": st.sampled_from([2, 4]),
            "block_size": st.sampled_from([16, 32]),
        }
    ),
    min_size=1,
    max_size=2,
)


def build_trace(raw_events, label):
    return Trace(
        [
            MemoryAccess(
                time=index,
                address=address,
                size=size,
                kind=AccessKind.WRITE if is_write else AccessKind.READ,
                space=AddressSpace.DATA,
                value=None,
            )
            for index, (address, size, is_write) in enumerate(raw_events)
        ],
        name=label,
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    traces=st.lists(events, min_size=1, max_size=2),
    config_grid=configs,
)
def test_serial_parallel_and_cached_sweeps_merge_bit_identically(
    tmp_path_factory, traces, config_grid
):
    specs = [
        TraceSpec.inline(build_trace(raw, f"prop_{index}"))
        for index, raw in enumerate(traces)
    ]
    tasks = [
        SweepTask.make("e1_clustering", spec, config)
        for spec in specs
        for config in config_grid
    ]
    cache = ResultCache(tmp_path_factory.mktemp("sweep-cache"))

    serial = run_sweep(tasks, jobs=1, cache=cache)
    parallel = run_sweep(tasks, jobs=4, cache=None)
    cached = run_sweep(tasks, jobs=4, cache=cache)

    assert serial.results == parallel.results == cached.results
    assert cached.hits == len(tasks)
    assert cached.misses == 0
    for report in (serial, parallel, cached):
        assert [outcome.task for outcome in report.outcomes] == tasks


# -- config ingress ---------------------------------------------------------------


def _positive_int(value) -> bool:
    return type(value) is int and value > 0


def _of_type(kind):
    return lambda value: type(value) is kind or (kind is float and type(value) is int)


def _one_of(*names):
    return lambda value: type(value) is str and value in names


#: The keys ``--set`` can reach, per flow, and which values each accepts.
ACCEPTS = {
    "e1_clustering": {
        "block_size": _positive_int,
        "max_banks": _positive_int,
        "strategy": _one_of("identity", "phase_aware", "frequency", "affinity", "random"),
        "partitioner": _one_of("optimal", "greedy", "even"),
        "round_pow2": _of_type(bool),
        "include_leakage": _of_type(bool),
    },
    "e2_compression": {
        "platform": _one_of("risc", "vliw"),
        "codec": _one_of("differential", "zero_run", "lzw", "bdi", "none"),
    },
    "e3_encoding": {
        "width": _of_type(int),
        "include_functional": _of_type(bool),
        "train_fraction": _of_type(float),
    },
    "e4_reconfig": {
        "scheduler": _one_of("naive", "energy"),
        "window_events": _of_type(int),
        "region_bytes": _of_type(int),
        "num_contexts": _of_type(int),
        "l0_size": _of_type(int),
        "context_slots": _of_type(int),
    },
}

#: ``--set`` value texts: each flow's names, numbers of both types, bools.
VALUE_TEXTS = [
    "16", "1", "0", "-3", "1.0", "0.5", "true", "false", "risc", "dsp", "bdi",
    "zip", "naive", "greedy", "affinity", "affinty", "optimal",
]

set_mappings = st.sampled_from(FLOW_NAMES).flatmap(
    lambda flow: st.tuples(
        st.just(flow),
        st.dictionaries(
            st.sampled_from([*ACCEPTS[flow], "bogus_key"]),
            st.sampled_from(VALUE_TEXTS).map(parse_scalar),
            max_size=4,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(set_mappings)
def test_set_mapping_types_or_fails_before_any_task(flow_and_config):
    flow, config = flow_and_config
    task = SweepTask.make(flow, TraceSpec.synthetic("value", lines=2), config)
    bad = [
        key for key, value in config.items()
        if key not in ACCEPTS[flow] or not ACCEPTS[flow][key](value)
    ]
    with mock.patch.object(runner, "_execute_task", return_value="{}") as execute:
        try:
            run_sweep([task], jobs=1)
        except ValueError as error:
            message = str(error)
            assert bad, f"valid config rejected: {message}"
            assert message.startswith(f"flow {flow!r}")
            assert any(f"'{key}'" in message or f".{key} " in message for key in bad)
            assert not execute.called
            return
    assert not bad, f"invalid config accepted: {config}"
    assert execute.call_count == 1
    # e3's train_fraction is the one float key; an int there runs as a float.
    typed = {
        key: float(value) if key == "train_fraction" else value
        for key, value in config.items()
    }
    assert json.dumps(typed_config(flow, config), sort_keys=True) == json.dumps(
        typed, sort_keys=True
    )
    assert task.config_hash == config_fingerprint({"flow": flow, "config": typed})
