"""Report emission: atomic CSV/JSON writers with a stable schema.

Numbers print with 17 significant digits so re-running an identical config
reproduces output byte for byte.  Every file is written to a temporary
sibling and renamed into place.
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
    rows = map(",".join, zip(*map(_formatted, arrays)))
    atomic_write_text(path, "\n".join([",".join(names), *rows]) + "\n")


def _formatted(arr: np.ndarray):
    """``format_number`` over a 1-d column, lazily, in one pass."""
    values = arr.tolist()
    if arr.dtype.kind in "iu":
        return map(str, values)
    if arr.dtype.kind == "f":
        # spells nan, inf and -inf as format_number does
        return map("{:.17g}".format, values)
    return map(format_number, values)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu":
            return obj.tolist()
        if obj.dtype.kind == "f" and obj.ndim == 1:
            out = obj.tolist()
            for i in np.flatnonzero(~np.isfinite(obj)).tolist():
                out[i] = format_number(out[i])
            return out
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else format_number(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: str, payload: dict) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_jsonable(payload))
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


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
