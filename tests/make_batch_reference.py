"""Frozen per-row batch assembly, the oracle for the column gather.

This is make_batch as it stood while manifests held one record per
sample: one loop over the ids, zero-filled arrays written row by row. The
gather must return the same arrays bit for bit (a masked-off row is +0.0,
never -0.0) and otherwise raise the same exception with the same message,
so do not edit it along with fedmm.
"""

from __future__ import annotations

import numpy as np

from fedmm.data import DatasetManifest
from fedmm.model import Batch


def make_batch(
    manifest: DatasetManifest,
    sample_ids: list[str],
    masks: list[tuple[bool, ...]] | None = None,
) -> Batch:
    mods = manifest.modalities
    n = len(sample_ids)
    feats = [np.zeros((n, m.dim)) for m in mods]
    pres = [np.zeros(n) for _ in mods]
    labels = np.zeros(n, dtype=np.int64)
    for row, sid in enumerate(sample_ids):
        sample = manifest.by_id(sid)
        manifest_mask = sample.presence(mods)
        mask = manifest_mask if masks is None else masks[row]
        if not any(mask):
            raise ValueError(f"sample {sid!r}: empty effective mask")
        labels[row] = sample.label
        for i, m in enumerate(mods):
            if mask[i]:
                if not manifest_mask[i]:
                    raise ValueError(f"sample {sid!r}: mask requests absent modality {m.name!r}")
                feats[i][row] = sample.features[m.name]
                pres[i][row] = 1.0
    return Batch(features=feats, presence=pres, labels=labels)
