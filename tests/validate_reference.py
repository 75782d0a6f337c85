"""Frozen per-sample manifest validation, the oracle for the array passes.

This is validate_manifest as it stood before it checked manifests in
bulk: one loop over the samples, every check on every vector. The bulk
validator must accept exactly what this accepts and otherwise raise the
same exception with the same message, so do not edit it along with fedmm.
Its one later edit is the integer-label check, after the range check: a
label such as 0.5 or 1.0 was accepted and stored truncated to an int.
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
        if not (0 <= s.label < manifest.class_count):
            raise ValueError(f"sample {s.id!r} label {s.label} outside [0, {manifest.class_count})")
        try:
            operator.index(s.label)
        except TypeError:
            raise ValueError(f"sample {s.id!r} label {s.label} is not an integer") from None
        for name, vec in s.features.items():
            if name not in dims:
                raise ValueError(f"sample {s.id!r} carries undeclared modality {name!r}")
            if vec.shape != (dims[name],):
                raise ValueError(
                    f"sample {s.id!r} modality {name!r} has shape {vec.shape}, expected ({dims[name]},)"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"sample {s.id!r} modality {name!r} has non-finite entries")
