"""Every file fedmm writes, encoded one way, and the strict JSON it reads.

Text files are UTF-8 on every platform:
  - JSON and JSON lines (`dumps`, `write_lines`): strict JSON, non-ASCII
    text kept as is, LF line ends; a NaN or infinity raises ValueError
    instead of writing `NaN` or `Infinity`, and since `write_lines`
    builds the whole text before the file opens, it leaves no file then;
  - CSV (`write_csv`): the csv module's RFC 4180 rows, CRLF line ends.
`loads` reads JSON as strictly, for every reader of checkpoint headers,
manifests and run logs.

Tensor files hold one JSON header line (metadata plus an ordered array
manifest), then the arrays' raw little-endian float64 bytes concatenated
in manifest order. No timestamps or compression, so identical contents
give identical bytes, and a write/read cycle is bit-exact.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from pathlib import Path

import numpy as np


def dumps(obj: object, indent: int | None = None) -> str:
    """Strict JSON text, non-ASCII kept as is; a NaN or infinity raises
    ValueError."""
    return json.dumps(obj, ensure_ascii=False, allow_nan=False, indent=indent)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} appears twice in one object")
    return obj


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def loads(text: str | bytes) -> object:
    """JSON as `dumps` writes it: a key repeated in one object, or a NaN,
    infinity or number beyond float range, raises ValueError."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_finite, parse_float=_finite)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Each of lines, then LF."""
    Path(path).write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """header, then rows, as the csv module's RFC 4180 rows: CRLF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_tensor_file(path: str | Path, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    manifest = []
    blobs = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        manifest.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = dict(meta)
    header["arrays"] = manifest
    with open(path, "wb") as fh:
        fh.write(dumps(header).encode("utf-8") + b"\n")
        for blob in blobs:
            fh.write(blob)


def read_tensor_file(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """A tensor file's metadata and its arrays, in file order. The header
    must be laid out as write_tensor_file lays it out, `arrays` last and
    each entry's keys name and shape alone, in that order, and the payload
    must hold the arrays' bytes exactly; else ValueError naming the file."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = loads(header_line.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"{path}: header line is not UTF-8 JSON: {err}") from None
    if not isinstance(header, dict) or list(header)[-1:] != ["arrays"] or not isinstance(header["arrays"], list):
        raise ValueError(f"{path}: header is not an object whose last key is an `arrays` list")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header.pop("arrays"):
        if not isinstance(entry, dict) or list(entry) != ["name", "shape"]:
            raise ValueError(f"{path}: array entry {entry!r:.80} does not hold the keys name and shape alone, in that order")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str) or name in arrays:
            raise ValueError(f"{path}: array entry {entry!r} lacks a unique string name")
        # bool is an int subclass; a JSON true is not a dimension
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"{path}: array {name!r} has shape {shape!r}, not a list of non-negative ints")
        nbytes = math.prod(shape) * 8
        if nbytes > len(payload) - offset:
            raise ValueError(f"{path}: truncated payload at array {name!r}")
        arrays[name] = np.frombuffer(payload, dtype="<f8", count=nbytes // 8, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise ValueError(f"{path}: {len(payload) - offset} trailing bytes after last array")
    return header, arrays
