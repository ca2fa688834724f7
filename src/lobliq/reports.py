"""Report emission: atomic CSV/JSON writers with a stable schema.

Numbers print with 17 significant digits in CSV (``'%.17g' % v``) and as
``repr(v)`` in JSON, so re-running an identical config reproduces output byte
for byte.  Every file is written to a temporary sibling and renamed into
place.

A column of at least ``_VECTOR_ROWS`` rows is spelled in NumPy vectors
(:mod:`lobliq._spelling`, imported on first use), not one dtoa call per
number; shorter columns keep the per-value spelling, which is faster there.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Mapping, Sequence

import numpy as np

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "atomic_write_text", "format_number", "write_csv",
           "write_json", "write_schema_sidecar", "write_manifest"]

# Columns shorter than this keep the per-value spelling.  The vector path
# costs about 0.15 ms more a column at 64 rows and breaks even near 250 rows
# for a 5-column CSV table and near 300 for a JSON float column (min of 30
# timings a size on a shared 2-core x86 machine).  Not a setting: the bytes
# are the same either way.
_VECTOR_ROWS = 320
_VECTOR_FLOATS = (np.float16, np.float32, np.float64)  # exact as float64


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def format_number(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def write_csv(path: str, columns: Mapping[str, Sequence]) -> None:
    """Columns of equal length, one header row, 17-significant-digit floats."""
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[k])) for k in names]
    length = len(arrays[0])
    for name, arr in zip(names, arrays):
        if len(arr) != length:
            raise ValueError(f"column {name!r} has length {len(arr)}, expected {length}")
    if length >= _VECTOR_ROWS:
        from ._spelling import spell_rows
        rows = spell_rows(arrays, b",", b"\n", json=False)
        atomic_write_text(path, "".join([",".join(names) + "\n", *rows]))
        return
    fields, cells = zip(*map(_field, arrays))
    rows = map(",".join(fields).__mod__, zip(*cells))
    atomic_write_text(path, "\n".join([",".join(names), *rows]) + "\n")


def _field(arr: np.ndarray) -> tuple[str, list]:
    """A %-format field and cell values that spell a 1-d column as
    ``format_number`` does, so that one template formats a whole row."""
    values = arr.tolist()
    if arr.dtype.kind in "iu":
        return "%d", values
    if arr.dtype.kind == "f":
        return "%.17g", values  # spells nan, inf and -inf as format_number does
    return "%s", [format_number(v) for v in values]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind in "biuf":
            return obj  # a column: _dumps encodes it straight from the array
        if obj.dtype.kind in "biu":
            return obj.tolist()
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else format_number(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _dumps(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, continued lines indented
    by ``pad``.  The indenting encoder is pure Python; here each list of
    scalars is one call to the C encoder, with the line break and indent
    folded into its item separator, and a long float column is spelled in
    vectors."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):  # a 1-d column left by _jsonable
        if len(obj) >= _VECTOR_ROWS and obj.dtype.type in _VECTOR_FLOATS:
            from ._spelling import spell_rows
            sep = ",\n" + inner
            rows = spell_rows([obj], b"", sep.encode(), json=True)
            rows[-1] = rows[-1][:-len(sep)]
            return "".join(["[\n" + inner, *rows, "\n" + pad + "]"])
        values = obj.tolist()
        if obj.dtype.kind == "f":
            for i in np.flatnonzero(~np.isfinite(obj)).tolist():
                values[i] = format_number(values[i])
        return _dumps_flat(values, pad)
    if isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
        items = (json.dumps(k) + ": " + _dumps(v, inner) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)) and obj:
        if not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in obj):
            return _dumps_flat(obj, pad)
        items = (_dumps(v, inner) for v in obj)
    else:  # scalars and empty containers
        return json.dumps(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _dumps_flat(values: list, pad: str) -> str:
    """A list of JSON scalars, one item a line, in one C-encoder call."""
    if not values:
        return "[]"
    inner = pad + "  "
    flat = json.dumps(values, separators=(",\n" + inner, ": "))
    return "[\n" + inner + flat[1:-1] + "\n" + pad + "]"


def write_json(path: str, payload: dict) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_jsonable(payload))
    atomic_write_text(path, _dumps(body) + "\n")


def write_schema_sidecar(path: str, table_name: str,
                         column_docs: Mapping[str, str]) -> None:
    write_json(path, {"table": table_name, "columns": dict(column_docs)})


def write_manifest(out_dir: str, command: str, config_echo: dict, seed: int,
                   wall_time_s: float, artifacts: Sequence[str]) -> str:
    import lobliq
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, {
        "command": command,
        "config": config_echo,
        "seed": seed,
        "package_version": getattr(lobliq, "__version__", "unknown"),
        "wall_time_seconds": wall_time_s,
        "artifacts": list(artifacts),
    })
    return path
