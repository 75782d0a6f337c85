"""Frozen per-sample manifest validation, the oracle for the array passes.

This is validate_manifest as it stood before it checked manifests in
bulk: one loop over the samples, every check on every vector. The bulk
validator must accept exactly what this accepts and otherwise raise the
same exception with the same message, so do not edit it along with fedmm.
Its first later edit is the integer-label check, after the range check: a
label such as 0.5 or 1.0 was accepted and stored truncated to an int.
Its second makes every record it rejects raise ValueError: a label that
is no number (a string, None, a list) fails the integer check instead of
the range comparison raising TypeError, and a vector must be a numpy
array of bools, ints, uints or floats before its shape and finiteness
are read, so a list, a string, or a complex or object array no longer
raises AttributeError or TypeError, or passes with a complex part lost.
"""

from __future__ import annotations

import operator

import numpy as np

from fedmm.data import SPLITS, DatasetManifest


def validate_manifest(manifest: DatasetManifest) -> None:
    names = [m.name for m in manifest.modalities]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate modality names: {names}")
    if not manifest.modalities:
        raise ValueError("manifest declares no modalities")
    if manifest.class_count < 2:
        raise ValueError(f"class_count must be >= 2, got {manifest.class_count}")
    if manifest.split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {manifest.split!r}")
    dims = {m.name: m.dim for m in manifest.modalities}
    seen: set[str] = set()
    for s in manifest.samples:
        if s.id in seen:
            raise ValueError(f"duplicate sample id {s.id!r}")
        seen.add(s.id)
        if not s.features:
            raise ValueError(f"sample {s.id!r} has no modalities")
        try:
            outside = not (0 <= s.label < manifest.class_count)
        except (TypeError, ValueError):  # no number: the integer check names it
            outside = False
        if outside:
            raise ValueError(f"sample {s.id!r} label {s.label} outside [0, {manifest.class_count})")
        try:
            operator.index(s.label)
        except TypeError:
            raise ValueError(f"sample {s.id!r} label {s.label} is not an integer") from None
        for name, vec in s.features.items():
            if name not in dims:
                raise ValueError(f"sample {s.id!r} carries undeclared modality {name!r}")
            if not (isinstance(vec, np.ndarray) and vec.dtype.kind in "biuf"):
                raise ValueError(f"sample {s.id!r} modality {name!r} is not a numpy array of bools, ints, uints or floats")
            if vec.shape != (dims[name],):
                raise ValueError(
                    f"sample {s.id!r} modality {name!r} has shape {vec.shape}, expected ({dims[name]},)"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"sample {s.id!r} modality {name!r} has non-finite entries")
