"""Columnar ingress: file-backed traces load as columns and walk as events.

``load_npz`` and ``load_store`` return a :class:`ColumnarTrace`, and so does
``TraceSpec.load`` for ``.npz`` and ``.tstore`` sources.  Consumers that walk
events take those columns unchanged, through ``ColumnarTrace.__iter__`` (one
``MemoryAccess`` per row, built once and kept) and slicing.  The properties
pin both halves against the scalar ``Trace`` the columns came from: every
ingress yields the same events and the same slices, and every flow returns
the same JSON for a ``ColumnarTrace`` and for its ``to_trace()``.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.flows import FLOW_NAMES, run_flow
from repro.core.phased import PhasedMemoryOptimizationFlow
from repro.trace import AccessKind, AddressSpace, MarkovRegionGenerator, MemoryAccess, Trace
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import load_npz, save_npz
from repro.trace.store import load_store, save_store

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def trace_strategy(payloads):
    """``(events, whether events carry their payloads)``; each event is
    ``(address, timestamp gap, size, is_write, is_instruction, payload)``."""
    event = st.tuples(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=50),
        st.sampled_from([1, 2, 4, 8]),
        st.booleans(),
        st.booleans(),
        st.one_of(st.none(), payloads),
    )
    return st.tuples(st.lists(event, max_size=80), st.booleans())


#: Any int64 payload but -1, which the npz format reserves for "no payload".
int64_payloads = st.integers(min_value=INT64_MIN, max_value=INT64_MAX).filter(
    lambda value: value != -1
)
#: The flows' domain: 32-bit bus words.
word_payloads = st.integers(min_value=0, max_value=2**32 - 1)


def build_trace(case) -> Trace:
    """A valid trace in both address spaces, with or without payloads."""
    raw_events, with_values = case
    events = []
    time = 0
    for address, gap, size, is_write, is_instruction, value in raw_events:
        time += gap
        events.append(
            MemoryAccess(
                time=time,
                address=address,
                size=size,
                kind=AccessKind.WRITE if is_write else AccessKind.READ,
                space=AddressSpace.INSTRUCTION if is_instruction else AddressSpace.DATA,
                value=value if with_values else None,
            )
        )
    return Trace(events, name="prop")


def outcome(flow: str, trace) -> str:
    """``flow``'s canonical JSON on ``trace``, or its error as text."""
    try:
        return json.dumps(run_flow(flow, trace, {}), sort_keys=True)
    except ValueError as error:
        return f"ValueError: {error}"


@settings(max_examples=120, deadline=None)
@given(trace_strategy(int64_payloads), st.data())
def test_every_columnar_ingress_yields_the_trace_events(tmp_path_factory, case, data):
    trace = build_trace(case)
    root = tmp_path_factory.mktemp("ingress")
    save_npz(trace, root / "prop.npz")
    store = save_store(trace, root / "prop.tstore")
    views = [
        ColumnarTrace.from_trace(trace),
        load_npz(root / "prop.npz"),
        load_store(store, verify=True),
    ]
    rows = data.draw(st.slices(len(trace)))
    for view in views:
        assert isinstance(view, ColumnarTrace)
        assert view.name == trace.name
        assert list(view) == list(trace)
        assert list(view[rows]) == list(trace[rows])
        assert view[rows].name == trace[rows].name


@settings(max_examples=25, deadline=None)
@given(trace_strategy(word_payloads))
def test_flows_agree_on_columns_and_their_events(case):
    columnar = ColumnarTrace.from_trace(build_trace(case))
    for flow in FLOW_NAMES:
        assert outcome(flow, columnar) == outcome(flow, columnar.to_trace()), flow


def test_phased_flow_on_npz_equals_the_original_trace(tmp_path):
    trace = MarkovRegionGenerator(accesses=3000, seed=3).generate()
    save_npz(trace, tmp_path / "markov.npz")
    flow = PhasedMemoryOptimizationFlow()
    expected = flow.run(trace)
    actual = flow.run(load_npz(tmp_path / "markov.npz"))
    assert actual.segmentation.phases == expected.segmentation.phases
    assert actual.static_energy == expected.static_energy
    assert actual.phased_energy == expected.phased_energy
    assert [result.to_dict() for result in actual.phase_results] == [
        result.to_dict() for result in expected.phase_results
    ]


def test_event_view_is_built_once_and_kept(tmp_path):
    trace = MarkovRegionGenerator(accesses=500, seed=4).generate()
    save_npz(trace, tmp_path / "markov.npz")
    columnar = load_npz(tmp_path / "markov.npz")
    first = list(columnar)
    assert first == list(trace)
    assert all(a is b for a, b in zip(first, columnar))
    # A filter keeping every row is the trace itself, kept view included.
    assert columnar.data_accesses() is columnar
    # to_trace copies the view: appending to the copy leaves it alone.
    copy = columnar.to_trace()
    copy.append(first[-1])
    assert len(list(columnar)) == len(trace)
