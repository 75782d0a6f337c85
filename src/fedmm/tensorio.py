"""Flat deterministic tensor files.

One JSON header line (metadata plus an ordered array manifest), then the
arrays' raw little-endian float64 bytes concatenated in manifest order.
No timestamps or compression, so identical contents give identical bytes,
and a write/read cycle is bit-exact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


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
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        for blob in blobs:
            fh.write(blob)


class Entries(dict):
    """A file's header keys or arrays; looking up one the file lacks
    raises ValueError naming the file and the key."""

    def __init__(self, path: str | Path, what: str, entries: dict) -> None:
        super().__init__(entries)
        self.missing = f"{path}: no {what}"

    def __missing__(self, key):
        raise ValueError(f"{self.missing} {key!r}")


def read_tensor_file(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    manifest = header.pop("arrays", None) if isinstance(header, dict) else None
    if not isinstance(manifest, list):
        raise ValueError(f"{path}: header is not an object with an `arrays` list")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in manifest:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name in arrays:
            raise ValueError(f"{path}: array entry {entry!r} lacks a unique string name")
        shape = entry.get("shape")
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
    return Entries(path, "header key", header), Entries(path, "array", arrays)
