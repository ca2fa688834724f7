import json
import math

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lobliq.reports import format_number, write_csv, write_json

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
    write_csv(str(path), COLUMNS)
    assert path.read_text() == _reference_csv(COLUMNS)


def test_json_matches_per_element_reference(tmp_path):
    path = tmp_path / "t.json"
    write_json(str(path), {"columns": COLUMNS})
    expected = {"schema_version": 1,
                "columns": {k: [_reference_cell(v) for v in arr.tolist()]
                            for k, arr in COLUMNS.items()}}
    assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_json_spells_nonfinite_as_strings(tmp_path):
    path = tmp_path / "t.json"
    write_json(str(path), {"x": np.array([[1.0, math.nan], [-math.inf, 2.0]])})
    assert json.loads(path.read_text())["x"] == [[1.0, "nan"], ["-inf", 2.0]]


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
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)
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
