import json
import math

import numpy as np

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
