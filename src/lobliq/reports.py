"""Report emission: atomic CSV/JSON writers with a stable schema.

Numbers print with 17 significant digits in CSV (``'%.17g' % v``) and as
``repr(v)`` in JSON, so re-running an identical config reproduces output byte
for byte.  Every file is written to a temporary sibling, created with the
umask's mode, and renamed into place.

``write_table`` writes a table as CSV, JSON or both in one pass over its
rows.  A table of at least ``_VECTOR_ROWS`` rows is spelled in NumPy vectors
(:mod:`lobliq._spelling`, imported on first use), each column once for both
files, and streamed to disk as bytes; shorter tables keep the per-value
spelling, which is faster there.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import Mapping, Sequence

import numpy as np

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "atomic_write_text", "format_number", "write_json",
           "write_manifest", "write_schema_sidecar", "write_table"]

# Tables shorter than this keep the per-value spelling.  The vector path
# costs about 0.15 ms more a column at 64 rows and breaks even near 250 rows
# for a 5-column CSV table and near 300 for a JSON float column (min of 30
# timings a size on a shared 2-core x86 machine).  Not a setting: the bytes
# are the same either way.
_VECTOR_ROWS = 320
# stands for a long table's column in its JSON document until the column's
# items, each closed by _ITEM_END, are spliced in
_COLUMN = object()
_ITEM_END = b",\n      "  # the columns sit at depth 2, their items at 3


@contextlib.contextmanager
def _temporaries(paths: Sequence[str]):
    """Binary files for ``paths``: temporary siblings, created with mode 0666
    less the umask and renamed into place together once the block completes;
    if it fails, none is renamed and each is removed."""
    made = []
    try:
        for path in paths:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
            made.append((tmp, open(tmp, "xb")))  # O_EXCL, mode 0666 less the umask
        yield [fh for _, fh in made]
        for _, fh in made:
            fh.close()
        for (tmp, _), path in zip(made, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp, fh in made:
            fh.close()
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    with _temporaries([path]) as (fh,):
        fh.write(text.encode())


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


def write_table(columns: Mapping[str, Sequence], csv_path: str | None = None,
                json_path: str | None = None, extra_json: dict | None = None) -> None:
    """Columns of equal length as CSV at ``csv_path`` (one header row) and as
    the JSON document {"columns": ..., "schema_version": 1, **extra_json} at
    ``json_path``; a path of None skips that file.  Both files are spelled in
    full before either is renamed into place."""
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[k])) for k in names]
    length = len(arrays[0])
    for name, arr in zip(names, arrays):
        if len(arr) != length:
            raise ValueError(f"column {name!r} has length {len(arr)}, expected {length}")
    header = ",".join(names)
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_jsonable(extra_json or {}))
    if length < _VECTOR_ROWS:
        texts = {}
        if csv_path is not None:
            fields, cells = zip(*map(_field, arrays))
            rows = map(",".join(fields).__mod__, zip(*cells))
            texts[csv_path] = "\n".join([header, *rows]) + "\n"
        if json_path is not None:
            body["columns"] = _jsonable(dict(zip(names, arrays)))
            texts[json_path] = _dumps(body) + "\n"
        for path, text in texts.items():
            atomic_write_text(path, text)
        return
    from ._spelling import spell_table
    body["columns"] = dict.fromkeys(names, _COLUMN)
    skeleton = (_dumps(body) + "\n").encode().split(b"\0")
    items = {name: [] for name in names}
    with _temporaries([p for p in (csv_path, json_path) if p is not None]) as files:
        if csv_path is not None:
            files[0].write(header.encode() + b"\n")
        chunks = spell_table(arrays, csv_path is not None,
                             _ITEM_END if json_path is not None else None)
        for rows, cells in chunks:
            if rows is not None:
                files[0].write(rows)
            for name, piece in zip(names, cells or ()):
                items[name].append(piece)
        if json_path is not None:
            files[-1].write(skeleton[0])
            for name, rest in zip(sorted(names), skeleton[1:]):  # as _dumps sorts them
                items[name][-1] = items[name][-1][:-len(_ITEM_END)]
                files[-1].writelines(items[name] + [rest])


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
        if obj.ndim == 0:
            return _jsonable(obj.item())
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
    folded into its item separator.  A long table's column (_COLUMN) is laid
    out around a NUL, which no JSON text contains, for its items."""
    inner = pad + "  "
    if obj is _COLUMN:
        return "[\n" + inner + "\0\n" + pad + "]"
    if isinstance(obj, np.ndarray):  # a 1-d column left by _jsonable
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
