"""Report emission: atomic CSV/JSON writers with a stable schema.

Numbers print with 17 significant digits so re-running an identical config
reproduces output byte for byte.  Every file is written to a temporary
sibling and renamed into place.
"""

from __future__ import annotations

import itertools
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
    fields, cells = zip(*map(_field, arrays))
    rows = itertools.starmap(",".join(fields).format, zip(*cells))
    atomic_write_text(path, "\n".join([",".join(names), *rows]) + "\n")


def _field(arr: np.ndarray) -> tuple[str, list]:
    """A format field and cell values that spell a 1-d column as
    ``format_number`` does, so that one template formats a whole row."""
    values = arr.tolist()
    if arr.dtype.kind in "iu":
        return "{}", values
    if arr.dtype.kind == "f":
        return "{:.17g}", values  # spells nan, inf and -inf as format_number does
    return "{}", [format_number(v) for v in values]


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


def _dumps(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, continued lines indented
    by ``pad``.  The indenting encoder is pure Python; here each list of
    scalars is one call to the C encoder, with the line break and indent
    folded into its item separator."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
        items = (json.dumps(k) + ": " + _dumps(v, inner) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)) and obj:
        if any(isinstance(v, (dict, list, tuple)) for v in obj):
            items = (_dumps(v, inner) for v in obj)
        else:
            flat = json.dumps(obj, separators=(",\n" + inner, ": "))
            return "[\n" + inner + flat[1:-1] + "\n" + pad + "]"
    else:  # scalars and empty containers
        return json.dumps(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


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
