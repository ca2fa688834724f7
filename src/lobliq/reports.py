"""Report emission: atomic CSV/JSON writers with a stable schema.

Numbers print with 17 significant digits in CSV (``'%.17g' % v``) and as
``repr(v)`` in JSON, so re-running an identical config reproduces output byte
for byte.  Every file is written to a temporary sibling, created with the
umask's mode, and renamed into place.

Every JSON document is ``json.dumps(body, indent=2, sort_keys=True)``.
``write_table`` writes a table as CSV, JSON or both in one pass, on one path
for every length: the rows in chunks streamed to disk as bytes, and each
column's JSON items spliced into the document where a one-NUL string stood.
A table of ``_VECTOR_ROWS`` rows or more is spelled in NumPy vectors
(:mod:`lobliq._spelling`, imported on first use), each column once for both
files; a shorter one value by value, which is faster there.
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

# Tables shorter than this are spelled value by value.  The vector path
# costs about 0.15 ms more a column at 64 rows and breaks even near 250 rows
# for a 5-column CSV table and near 300 for a JSON float column (min of 30
# timings a size on a shared 2-core x86 machine).  Not a setting: the bytes
# are the same either way.
_VECTOR_ROWS = 320
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
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_jsonable(extra_json or {}))
    body["columns"] = dict.fromkeys(names, "\0")
    text = (json.dumps(body, indent=2, sort_keys=True) + "\n").encode()
    # the columns object is split at its one-NUL strings; extra_json may hold
    # such strings too, but outside it
    start = text.index(b'\n  "columns": {')
    end = text.index(b"\n  }", start)
    head, *skeleton = text[start:end].split(b'"\\u0000"')
    spell = _spell_values
    if length >= _VECTOR_ROWS:
        from ._spelling import spell_table as spell
    items = {name: [] for name in names}
    with _temporaries([p for p in (csv_path, json_path) if p is not None]) as files:
        if csv_path is not None:
            files[0].write(",".join(names).encode() + b"\n")
        for rows, cells in spell(arrays, csv_path is not None,
                                 _ITEM_END if json_path is not None else None):
            if rows is not None:
                files[0].write(rows)
            for name, piece in zip(names, cells or ()):
                items[name].append(piece)
        if json_path is not None:
            files[-1].write(text[:start] + head)
            for name, rest in zip(sorted(names), skeleton):  # as json.dumps sorts them
                *pieces, last = items[name]
                column = [b"[\n      ", *pieces, last[:-len(_ITEM_END)], b"\n    ]"]
                files[-1].writelines((column if length else [b"[]"]) + [rest])
            files[-1].write(text[end:])


def _spell_values(arrays: list, csv: bool, json_end: bytes | None):
    """A short table as one chunk of ``_spelling.spell_table``'s form, spelled
    value by value: each CSV row by one template, each column's JSON items by
    one call to the C encoder."""
    rows = items = None
    if csv:
        fields, cells = zip(*map(_field, arrays))
        rows = "".join(map((",".join(fields) + "\n").__mod__, zip(*cells))).encode()
    if json_end is not None:
        end = json_end.decode()
        items = [(json.dumps(_jsonable(arr), separators=(end, ": "))[1:-1] + end).encode()
                 for arr in arrays]
    yield rows, items


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
        if obj.dtype.kind in "biu":
            return obj.tolist()
        if obj.ndim == 1 and obj.dtype.kind == "f":  # a column
            values = obj.tolist()
            for i in np.flatnonzero(~np.isfinite(obj)).tolist():
                values[i] = format_number(values[i])
            return values
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


def write_schema_sidecar(path: str, table_name: str, column_docs: Mapping[str, str],
                         extra_json: dict | None = None) -> None:
    """The CSV table's schema: its column docs, and the scalars that the
    JSON table carries beside its columns (``extra_json``)."""
    write_json(path, {"table": table_name, "columns": dict(column_docs), **(extra_json or {})})


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
