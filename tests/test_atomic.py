"""Artifact writers: what they write parses back equal, and a failed write changes nothing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiscalforge.atomic import write_csv, write_json, write_jsonl

MAX = 1.7976931348623157e308
# Negative zero, the smallest subnormal, the largest subnormal and the float extremes.
EDGE_FLOATS = (-0.0, 5e-324, -2.225073858507201e-308, MAX, -MAX)

numbers = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
)
json_values = st.recursive(
    numbers | st.booleans() | st.none() | st.text(max_size=5),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=20,
)


def _exact(value):
    """value with each float as its hex form, so that 0.0 != -0.0 and 1 != 1.0."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return {key: _exact(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _lines(path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text[:-1].split("\n")


@settings(max_examples=150, deadline=None)
@given(
    header=st.lists(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8),
                    min_size=1, max_size=5),
    rows=st.lists(st.lists(numbers, min_size=1, max_size=5), min_size=1, max_size=8),
)
def test_csv_round_trip(tmp_path_factory, header, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(path, header, rows)
    first, *lines = _lines(path)
    assert first.split(",") == header
    assert _exact([[_cell(c) for c in line.split(",")] for line in lines]) == _exact(rows)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(json_values, min_size=1, max_size=6))
def test_jsonl_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
    write_jsonl(path, rows)
    assert _exact([json.loads(line) for line in _lines(path)]) == _exact(rows)


@settings(max_examples=150, deadline=None)
@given(value=json_values)
def test_json_round_trip(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(path, value)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert _exact(json.loads(text)) == _exact(value)


def _rows_then_failure():
    yield (1, 2.5)
    yield (2, -0.0)
    raise RuntimeError("row source failed")


@pytest.mark.parametrize(
    "write",
    [lambda path, rows: write_csv(path, ("t", "x"), rows), write_jsonl],
    ids=["csv", "jsonl"],
)
def test_failing_rows_leave_old_file_whole(tmp_path, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"old,bytes\n1,2.0\n")
    with pytest.raises(RuntimeError, match="row source failed"):
        write(path, _rows_then_failure())
    assert path.read_bytes() == b"old,bytes\n1,2.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
