import json
import math
import os
import stat

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobliq import reports
from lobliq.reports import format_number, write_json, write_table

COLUMNS = {
    "int64": np.array([0, -3, 2**40, 7]),
    "int32": np.array([5, 0, -1, 2**31 - 1], dtype=np.int32),
    "bool": np.array([True, False, False, True]),
    "float32": np.array([0.1, -2.5, 1e-30, 3.0], dtype=np.float32),
    "finite": np.array([0.1, 1.0 / 3.0, -0.0, 6.02214076e23]),
    "nonfinite": np.array([math.nan, math.inf, -math.inf, 1.25]),
}


def _reference_csv(columns):
    """One ``format_number`` call per cell, row by row."""
    arrays = list(columns.values())
    lines = [",".join(columns)]
    for i in range(len(arrays[0])):
        lines.append(",".join(format_number(arr[i]) for arr in arrays))
    return "\n".join(lines) + "\n"


def _reference_cell(v):
    if isinstance(v, float) and not math.isfinite(v):
        return format_number(v)
    return v


def test_csv_matches_per_cell_reference(tmp_path):
    path = tmp_path / "t.csv"
    write_table(COLUMNS, csv_path=str(path))
    assert path.read_text() == _reference_csv(COLUMNS)


def test_json_matches_per_element_reference(tmp_path):
    path = tmp_path / "t.json"
    write_table(COLUMNS, json_path=str(path))
    expected = {"schema_version": 1,
                "columns": {k: [_reference_cell(v) for v in arr.tolist()]
                            for k, arr in COLUMNS.items()}}
    assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_json_spells_nonfinite_as_strings(tmp_path):
    path = tmp_path / "t.json"
    write_json(str(path), {"x": np.array([[1.0, math.nan], [-math.inf, 2.0]])})
    assert json.loads(path.read_text())["x"] == [[1.0, "nan"], ["-inf", 2.0]]


def test_json_writes_a_0d_array_as_its_scalar(tmp_path):
    path = tmp_path / "t.json"
    write_json(str(path), {"f": np.array(1.5), "nan": np.array(math.nan),
                           "i": np.array(3), "b": np.array(True)})
    assert json.loads(path.read_text()) == {"schema_version": 1, "f": 1.5, "nan": "nan",
                                            "i": 3, "b": True}


def _reference_jsonable(obj):
    """Arrays to nested lists, non-finite floats to their ``format_number``
    spelling: the body ``json.dumps`` would be given directly."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_reference_jsonable(v) for v in obj]
    return _reference_cell(obj)


_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)
_ARRAYS = st.one_of(hnp.arrays(np.int64, _SHAPES),
                    hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
                    hnp.arrays(np.bool_, _SHAPES))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=6), _ARRAYS)
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12)


@given(st.dictionaries(st.text(max_size=8), _VALUES, max_size=5))
@settings(max_examples=200, deadline=None)
def test_json_layout_matches_indenting_encoder(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "t.json"
    write_json(str(path), payload)
    body = {"schema_version": 1}
    body.update(_reference_jsonable(payload))
    assert path.read_text() == json.dumps(body, indent=2, sort_keys=True) + "\n"


_TABLE_COLUMNS = {
    "f": lambda n: hnp.arrays(np.float64, n, elements=_FLOATS),
    "i": lambda n: hnp.arrays(np.int64, n),
    "b": lambda n: hnp.arrays(np.bool_, n),
}


@st.composite
def _tables(draw):
    """Float, int and bool columns of a length on either side of the vector
    spelling's threshold, or empty."""
    n = draw(st.sampled_from([0, 1, reports._VECTOR_ROWS - 1, reports._VECTOR_ROWS, 700]))
    kinds = draw(st.lists(st.sampled_from("fib"), min_size=1, max_size=3))
    names = draw(st.permutations(["x", "columns", "A", "b_1"]))
    return {name: draw(_TABLE_COLUMNS[kind](n)) for name, kind in zip(names, kinds)}


@given(_tables(), st.dictionaries(st.text(max_size=8), _VALUES, max_size=3))
# one-NUL strings in extra_json, beside the columns' own
@example({"x": np.array([1.5, math.nan]), "A": np.array([1, 2])},
         {"a": "\0", "z": {"columns": "\0"}, "columns": "\0"})
@settings(max_examples=100, deadline=None)
def test_table_layout_matches_indenting_encoder(tmp_path_factory, columns, extra):
    path = tmp_path_factory.mktemp("table")
    write_table(columns, str(path / "t.csv"), str(path / "t.json"), extra)
    assert (path / "t.csv").read_text() == _reference_csv(columns)
    body = {"schema_version": 1}
    body.update(_reference_jsonable(extra))
    body["columns"] = _reference_jsonable(columns)
    assert (path / "t.json").read_text() == json.dumps(body, indent=2, sort_keys=True) + "\n"


def test_short_table_files_are_renamed_together(tmp_path):
    # the JSON file cannot be made, so the CSV beside it is left as it was
    csv_path = tmp_path / "t.csv"
    write_table({"x": np.arange(5) * 0.5}, csv_path=str(csv_path))
    (tmp_path / "plain").write_text("")
    before, listing = csv_path.read_bytes(), sorted(os.listdir(tmp_path))
    with pytest.raises(OSError):
        write_table({"x": np.arange(5) * 0.25}, str(csv_path), str(tmp_path / "plain" / "t.json"))
    assert csv_path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == listing


# --------------------------------------------------------------------------
# Long columns are spelled in vectors, short ones one value at a time; both
# must give '%.17g' % v in CSV and repr(v) in JSON.  Each case is written as
# a column of LONG rows and as 3-row columns.

LONG = 40_000


def _tie_cases():
    # M/4 for odd M in [4e15, 2**53): the 17th significant digit is a tie
    m = np.random.default_rng(15).integers(2 * 10**15, 2**52, 5000) * 2 + 1
    return m / 4.0


def _power_of_ten_cases():
    tens = 10.0 ** np.arange(-320, 309).astype(float)
    return np.concatenate([tens, np.nextafter(tens, math.inf), np.nextafter(tens, -math.inf)])


def _special_cases():
    # every power of two: their rounding intervals are lopsided
    twos = 2.0 ** np.arange(-1074, 1024).astype(float)
    tiny = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308])
    edges = np.array([0.0, -0.0, math.nan, math.inf, -math.inf,
                      1.7976931348623157e308, 1e-6, 1e17, 99999999999999999.0])
    return np.concatenate([twos, -twos, tiny, -tiny, edges, -edges])


def _integer_cases():
    ints = np.random.default_rng(16).integers(0, 2**53, 5000, endpoint=True)
    return np.concatenate([ints, [2**53, 2**53 - 1, 10**15, 10**16 - 1]]).astype(float)


FLOAT_CASES = {
    "ties": _tie_cases(),
    "powers_of_ten": _power_of_ten_cases(),
    "specials": _special_cases(),
    "integers": _integer_cases(),
    "milli_grid": np.arange(LONG) * 0.001,
    "float32": np.random.default_rng(17).standard_normal(LONG).astype(np.float32)
    * np.float32(1000.0),
}
INT_CASES = {
    "int64": np.array([-2**63, 2**63 - 1, 0, -1, 1, 9, 10, -10**18, 10**18, 99, -100]),
    "uint64": np.array([0, 1, 2**64 - 1, 10**19, 10**19 - 1, 2**63], dtype=np.uint64),
    "int32": np.array([-2**31, 2**31 - 1, 0, 7], dtype=np.int32),
}


def _columns(values):
    """The case as one LONG-row column and as 3-row columns."""
    short = [values[i:i + 3] for i in range(0, len(values) - 2, max(1, len(values) // 50))]
    return [np.resize(values, LONG), *short]


def _json_reference(columns):
    body = {"schema_version": 1}
    body.update(_reference_jsonable({"columns": columns}))
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", sorted({**FLOAT_CASES, **INT_CASES}))
def test_column_spelling_matches_per_value_references(tmp_path, case):
    values = {**FLOAT_CASES, **INT_CASES}[case]
    spell = "%d" if values.dtype.kind in "iu" else "%.17g"
    for column in _columns(values):
        path = tmp_path / "t.csv"
        write_table({"x": column}, str(path), str(tmp_path / "t.json"))
        assert path.read_text() == "x\n" + "".join(spell % v + "\n" for v in column.tolist())
        expected = _json_reference({"x": column})
        assert (tmp_path / "t.json").read_text() == expected


def test_long_table_matches_per_cell_reference(tmp_path):
    columns = {k: np.resize(v, LONG) for k, v in COLUMNS.items()}
    write_table(columns, csv_path=str(tmp_path / "t.csv"))
    assert (tmp_path / "t.csv").read_text() == _reference_csv(columns)
    write_table(columns, json_path=str(tmp_path / "t.json"))
    assert (tmp_path / "t.json").read_text() == _json_reference(columns)


@given(hnp.arrays(np.int64, st.integers(reports._VECTOR_ROWS, 3 * reports._VECTOR_ROWS)))
@settings(max_examples=150, deadline=None)
def test_vector_spelling_of_raw_bit_patterns(tmp_path_factory, bits):
    # every float64, the non-finite and subnormal ones included
    x = bits.view(np.float64)
    path = tmp_path_factory.mktemp("bits")
    write_table({"x": x}, str(path / "t.csv"), str(path / "t.json"))
    assert (path / "t.csv").read_text() == "x\n" + "".join(
        "%.17g\n" % v for v in x.tolist())
    assert (path / "t.json").read_text() == _json_reference({"x": x})


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifact_mode_follows_umask(tmp_path, umask, mode):
    # streamed tables and small text files alike
    old = os.umask(umask)
    try:
        write_table({"x": np.arange(LONG) * 0.5}, str(tmp_path / "t.csv"),
                    str(tmp_path / "t.json"))
        write_json(str(tmp_path / "e.json"), {"v": 1})
    finally:
        os.umask(old)
    for name in ("t.csv", "t.json", "e.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


@pytest.mark.parametrize("formats", ["csv", "json", "both"])
def test_failed_table_leaves_artifacts_untouched(tmp_path, monkeypatch, formats):
    from lobliq import _spelling

    csv_path, json_path = str(tmp_path / "t.csv"), str(tmp_path / "t.json")
    write_table({"x": np.arange(LONG) * 0.25}, csv_path, json_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    cells, calls = _spelling._cells, []

    def fail_on_second_chunk(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("kernel failed")
        return cells(*args)

    monkeypatch.setattr(_spelling, "_cells", fail_on_second_chunk)
    with pytest.raises(RuntimeError, match="kernel failed"):
        write_table({"x": np.arange(LONG) * 0.5}, csv_path if formats != "json" else None,
                    json_path if formats != "csv" else None)
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
