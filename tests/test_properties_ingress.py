"""Reader fuzz: every trace ingress yields a validated trace or a ``ValueError``.

``load_text``, ``load_npz`` and inline ``TraceSpec``s take their input from
outside the program.  Each property draws inputs that mix well-formed and
malformed parts and computes, from the drawn parts alone, whether the input
is well-formed and which events it holds.  The reader must then do one of
two things: return a ``Trace`` that passes ``validate()`` and holds exactly
those events, or raise ``ValueError`` naming the file (``path:line`` of the
first bad line for text) or the inline spec.  Any other exception, a
dropped or altered event, a malformed input that loads, or a well-formed
input that is rejected fails the property.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.spec import TraceSpec
from repro.trace import AccessKind, AddressSpace, load_npz, load_text

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: Kind/space letters: accepted ones map to their column code, the rest to None.
KINDS = {"R": 0, "W": 1, "r": 0, "w": 1, "Q": None, "RW": None, "1": None}
SPACES = {"D": 0, "I": 1, "d": 0, "i": 1, "Z": None, "DI": None}

#: Tokens no numeric field accepts.
JUNK = ["x", "zz", "0x", "0xzz", "g1", "1.5", "--1", "ten"]

int64 = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
outside_int64 = st.one_of(
    st.integers(min_value=INT64_MAX + 1, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=INT64_MIN - 1),
)


def event_row(event) -> tuple:
    """``(time, address, size, kind code, space code, value)`` of one event."""
    return (
        event.time,
        event.address,
        event.size,
        1 if event.kind is AccessKind.WRITE else 0,
        1 if event.space is AddressSpace.INSTRUCTION else 0,
        event.value,
    )


def check_outcome(load, expected, label: str) -> None:
    """``load()`` must return exactly ``expected`` rows, or reject naming ``label``.

    ``expected`` is ``None`` when the input is malformed.
    """
    try:
        trace = load()
    except ValueError as error:
        assert str(error).startswith(label), str(error)
        assert expected is None, f"well-formed input rejected: {error}"
        return
    assert expected is not None, "malformed input loaded"
    trace.validate()
    assert [event_row(event) for event in trace] == expected


# -- load_text ---------------------------------------------------------------------

def mostly(valid, bad):
    """``valid`` in seven draws of eight, else ``bad``: most inputs get deep."""
    return st.integers(min_value=0, max_value=7).flatmap(lambda n: valid if n else bad)


def hex_text(n: int, parsed):
    return (f"{n:#x}", parsed)


# A token is ``(text, parsed value)``; the value is None when the token is bad.
junk = st.sampled_from(JUNK).map(lambda text: (text, None))
address_token = mostly(
    st.integers(min_value=0, max_value=2**40).map(lambda n: hex_text(n, n)),
    st.integers(min_value=-(2**40), max_value=-1).map(lambda n: hex_text(n, None))
    | outside_int64.map(lambda n: hex_text(n, None))
    | junk,
)
value_token = st.none() | mostly(
    int64.map(lambda n: hex_text(n, n)),
    outside_int64.map(lambda n: hex_text(n, None)) | junk,
)
size_token = mostly(
    st.integers(min_value=1, max_value=64).map(lambda n: (str(n), n)),
    st.integers(min_value=-4, max_value=0).map(lambda n: (str(n), None))
    | outside_int64.map(lambda n: (str(n), None))
    | junk,
)
# A time is a gap after the previous event's (well-formed), a step back
# before it (decreasing, or negative when it crosses zero), or a bad token.
time_recipe = mostly(
    st.tuples(st.just("gap"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("back"), st.integers(min_value=1, max_value=50))
    | st.tuples(st.just("bad"), st.sampled_from(JUNK) | outside_int64.map(str)),
)


def letter(codes: dict):
    """An accepted letter of ``codes`` mostly, else a rejected one."""
    accepted = sorted(text for text, code in codes.items() if code is not None)
    rejected = sorted(text for text, code in codes.items() if code is None)
    return mostly(st.sampled_from(accepted), st.sampled_from(rejected))


data_line = st.tuples(
    st.just("data"),
    time_recipe,
    letter(KINDS),
    letter(SPACES),
    address_token,
    size_token,
    value_token,
)
wrong_field_count = (
    st.lists(st.sampled_from(["0", "R", "D", "0x10", "4"]), min_size=1, max_size=9)
    .filter(lambda tokens: len(tokens) not in (5, 6))
    .map(lambda tokens: ("bad", " ".join(tokens)))
)
skipped_line = st.sampled_from(["", "   ", "# a comment", "# trace fuzz"]).map(
    lambda text: ("skip", text)
)
text_lines = st.lists(mostly(data_line, wrong_field_count | skipped_line), max_size=12)


def render_text(lines) -> tuple[str, list | None, int | None]:
    """The file text, its expected rows, and the first bad line's number."""
    rendered, rows, last = [], [], 0
    for number, line in enumerate(lines, start=1):
        if line[0] != "data":
            rendered.append(line[1])
            if line[0] == "bad":
                return "\n".join(rendered) + "\n", None, number
            continue
        _, (how, amount), kind, space, address, size, value = line
        if how == "bad":
            time_text, time = amount, None
        else:
            time = last + amount if how == "gap" else last - amount
            time_text = str(time)
        fields = [time_text, kind, space, address[0], size[0]]
        if value is not None:
            fields.append(value[0])
        rendered.append(" ".join(fields))
        parsed = (time, address[1], size[1], KINDS[kind], SPACES[space])
        well_formed = (
            how == "gap" and None not in parsed and (value is None or value[1] is not None)
        )
        if not well_formed:
            return "\n".join(rendered) + "\n", None, number
        rows.append(parsed + (None if value is None else value[1],))
        last = time
    return "\n".join(rendered) + "\n", rows, None


@settings(max_examples=300, deadline=None)
@given(text_lines)
def test_load_text_yields_the_lines_or_names_the_bad_line(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("text") / "fuzz.trc"
    text, rows, bad_line = render_text(lines)
    path.write_text(text)
    label = f"{path}:{bad_line}: " if bad_line is not None else f"{path}:"
    check_outcome(lambda: load_text(path), rows, label)


# -- load_npz ----------------------------------------------------------------------

NUMERIC_KEYS = ("times", "addresses", "sizes", "kinds", "spaces", "values")
DTYPES = ("int64", "int32", "uint8", "float64", "bool")


def column(dtype: str, length: int):
    """Entries of one ``dtype`` column; integer codes reach 255."""
    if dtype == "bool":
        elements = st.booleans()
    elif dtype == "float64":
        elements = st.floats(min_value=-2, max_value=300, allow_nan=False)
    elif dtype == "uint8":
        elements = st.integers(min_value=0, max_value=255)
    else:
        elements = st.integers(min_value=-2, max_value=300)
    return st.lists(elements, min_size=length, max_size=length).map(
        lambda values: np.array(values, dtype=dtype)
    )


@st.composite
def independent_archive(draw):
    """Each key present or absent, each column's dtype and length its own."""
    arrays = {}
    for key in NUMERIC_KEYS:
        if draw(st.integers(min_value=0, max_value=3)):
            dtype = draw(st.sampled_from(DTYPES))
            length = draw(st.integers(min_value=0, max_value=4))
            arrays[key] = draw(column(dtype, length))
    return arrays, draw(st.booleans())


@st.composite
def aligned_archive(draw):
    """Every key present, integer dtypes, one shared length: the loadable shape."""
    length = draw(st.integers(min_value=0, max_value=4))
    arrays = {
        key: draw(column(draw(st.sampled_from(DTYPES[:3])), length))
        for key in NUMERIC_KEYS
    }
    if draw(st.booleans()):
        arrays["times"] = np.sort(arrays["times"])
    codes = st.lists(
        st.integers(min_value=0, max_value=1), min_size=length, max_size=length
    )
    for key in ("kinds", "spaces"):
        if draw(st.booleans()):
            arrays[key] = np.array(draw(codes), dtype=arrays[key].dtype)
    return arrays, True


def npz_rows(arrays, has_name: bool) -> list | None:
    """The rows a well-formed archive holds, or None for a malformed one."""
    if not has_name or set(arrays) != set(NUMERIC_KEYS):
        return None
    if any(array.dtype.kind not in "iu" for array in arrays.values()):
        return None
    if len({len(array) for array in arrays.values()}) != 1:
        return None
    rows, last = [], 0
    for time, address, size, kind, space, value in zip(
        *(arrays[key].tolist() for key in NUMERIC_KEYS)
    ):
        if time < last or address < 0 or size <= 0 or {kind, space} - {0, 1}:
            return None
        rows.append((time, address, size, kind, space, None if value == -1 else value))
        last = time
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(independent_archive(), aligned_archive()))
def test_load_npz_yields_the_rows_or_names_the_file(tmp_path_factory, archive):
    arrays, has_name = archive
    path = tmp_path_factory.mktemp("npz") / "fuzz.npz"
    np.savez(path, **arrays, **({"name": np.array("fuzz")} if has_name else {}))
    check_outcome(lambda: load_npz(path), npz_rows(arrays, has_name), f"{path}: ")


# -- inline TraceSpec --------------------------------------------------------------

integer = mostly(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=-5, max_value=-1) | outside_int64,
)
inline_event = mostly(
    st.tuples(
        integer,
        integer,
        integer,
        letter(KINDS) | st.just(" w "),
        letter(SPACES) | st.just(" i "),
        st.none() | mostly(int64, outside_int64),
    ),
    st.lists(integer, max_size=8).filter(lambda fields: len(fields) != 6).map(tuple),
)


def inline_rows(events) -> list | None:
    """The rows well-formed inline events hold, or None for malformed ones."""
    rows, last = [], 0
    for event in events:
        if len(event) != 6:
            return None
        time, address, size, kind, space, value = event
        kind_code = KINDS.get(kind.strip())
        space_code = SPACES.get(space.strip())
        if not (
            last <= time <= INT64_MAX
            and 0 <= address <= INT64_MAX
            and 0 < size <= INT64_MAX
            and kind_code is not None
            and space_code is not None
            and (value is None or INT64_MIN <= value <= INT64_MAX)
        ):
            return None
        rows.append((time, address, size, kind_code, space_code, value))
        last = time
    return rows


@settings(max_examples=300, deadline=None)
@given(st.lists(inline_event, max_size=8), st.booleans())
def test_inline_spec_yields_the_events_or_names_the_spec(events, sort_times):
    if sort_times:
        times = sorted(event[0] for event in events if len(event) == 6)
        events = [
            (times.pop(0),) + event[1:] if len(event) == 6 else event for event in events
        ]
    spec = TraceSpec(kind="inline", name="fuzz", events=tuple(events))
    check_outcome(spec.load, inline_rows(events), "inline trace spec 'fuzz': ")
