"""Datasets as feature manifests.

A manifest is the unit of data exchange: named modalities with fixed
feature dims, a class count, a split tag, and the samples stored as
columns: the id list, one int64 label vector, per modality one (N, dim)
float64 matrix (+0.0 in the rows of samples without that modality) and
one (N, M) bool presence matrix, every array write-protected. Raw media
never enters the package; features are precomputed elsewhere.

Constraints the rest of the package relies on:
  - modality names are nonempty and free of '+', which joins them in a
    presence pattern's name,
  - every sample carries at least one modality,
  - present vectors match the declared dim exactly and are finite,
  - labels are integers in [0, class_count),
  - save_manifest(load_manifest(p)) reproduces p byte for byte.

A manifest is built from columns (synth_generate: one noise block and one
centroid add per modality, no per-sample object) or from records
(DatasetManifest.from_records, which load_manifest uses): the records
are stacked once per modality, checking only what stacking needs (an
integer label, declared modality names, arrays of the declared dim).
Either way the constructor checks the columns (validate_manifest, in
array passes alone), so a DatasetManifest is valid once it exists and
nothing downstream checks it again. When stacking or the column check
fails on records, a per-sample loop names the first offending sample in
record order; a pass over columns cannot, since a record's faults are
reported in the order of its feature dict, not of the modalities. Sample
is the record type; by_id and samples hand out rows as records of
read-only views, built on each call and never kept. The rest of the
package addresses samples by row (a partition holds rows and masks) and
reads `ids` only to name a sample in an output or an error.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .tensorio import Entries

SPLITS = ("train", "test")


@dataclass(frozen=True)
class ModalityDescriptor:
    name: str
    dim: int


@dataclass
class Sample:
    """One record: features keyed by modality name, present keys only."""

    id: str
    label: int
    features: dict[str, np.ndarray]

    def presence(self, modalities: tuple[ModalityDescriptor, ...]) -> tuple[bool, ...]:
        return tuple(m.name in self.features for m in modalities)


@dataclass(eq=False)
class DatasetManifest:
    """A dataset's samples as columns (see the module docstring): `ids`,
    `labels` (N,), `features[i]` (N, modalities[i].dim) and `presence`
    (N, M). The arrays are write-protected as given; the id -> row index
    is built here, once, and then the columns are checked
    (validate_manifest)."""

    modalities: tuple[ModalityDescriptor, ...]
    class_count: int
    split: str
    ids: tuple[str, ...]
    labels: np.ndarray
    features: tuple[np.ndarray, ...]
    presence: np.ndarray

    def __post_init__(self) -> None:
        self.ids, self.features = tuple(self.ids), tuple(self.features)
        for array in (self.labels, *self.features, self.presence):
            array.flags.writeable = False
        self._index = dict(zip(self.ids, range(len(self.ids))))
        validate_manifest(self)

    @classmethod
    def from_records(
        cls, modalities: tuple[ModalityDescriptor, ...], class_count: int, split: str, samples: list[Sample]
    ) -> "DatasetManifest":
        """The records as columns, labels stored as int64. On any fault the
        ValueError names the first offending sample in record order."""
        modalities, samples = tuple(modalities), list(samples)
        try:
            return cls(modalities, class_count, split, *_stacked(modalities, samples))
        except (TypeError, ValueError, OverflowError):
            _check_each_sample(samples, class_count, _check_header(modalities, class_count, split))
            raise

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, sample_id: str) -> int:
        try:
            return self._index[sample_id]
        except KeyError:
            raise ValueError(f"unknown sample id {sample_id!r}") from None

    def record(self, index: int) -> Sample:
        """Row `index` as a record: its id, its label as an int, and a
        read-only view of each vector it has."""
        features = zip(self.modalities, self.features, self.presence[index])
        return Sample(self.ids[index], int(self.labels[index]), {m.name: f[index] for m, f, has in features if has})

    def by_id(self, sample_id: str) -> Sample:
        return self.record(self.index_of(sample_id))

    @property
    def samples(self) -> list[Sample]:
        """Every row as a record, in order."""
        return [self.record(i) for i in range(len(self.ids))]


def _check_header(modalities: tuple[ModalityDescriptor, ...], class_count: int, split: str) -> dict[str, int]:
    """Check everything but the samples; return each modality's dim by name."""
    names = [m.name for m in modalities]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate modality names: {names}")
    if not modalities:
        raise ValueError("manifest declares no modalities")
    if class_count < 2:
        raise ValueError(f"class_count must be >= 2, got {class_count}")
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    for m in modalities:
        if not m.name or "+" in m.name:
            raise ValueError(f"modality name {m.name!r} is empty or holds '+', which joins names in a presence pattern")
        if m.dim < 1:
            raise ValueError(f"modality {m.name!r} dim must be >= 1, got {m.dim}")
    return {m.name: m.dim for m in modalities}


def validate_manifest(manifest: DatasetManifest) -> None:
    """Raise ValueError naming the offending sample on any format
    violation, in array passes over the columns."""
    dims = _check_header(manifest.modalities, manifest.class_count, manifest.split)
    ids = manifest.ids
    if len(manifest._index) != len(ids):
        seen: set[str] = set()
        for sid in ids:
            if sid in seen:
                raise ValueError(f"duplicate sample id {sid!r}")
            seen.add(sid)
    bad = np.flatnonzero((manifest.labels < 0) | (manifest.labels >= manifest.class_count))
    if bad.size:
        raise ValueError(f"sample {ids[bad[0]]!r} label {manifest.labels[bad[0]]} outside [0, {manifest.class_count})")
    bad = np.flatnonzero(~manifest.presence.any(axis=1))
    if bad.size:
        raise ValueError(f"sample {ids[bad[0]]!r} has no modalities")
    for name, matrix, present in zip(dims, manifest.features, manifest.presence.T):
        bad = np.flatnonzero(present & ~np.isfinite(matrix).all(axis=1))
        if bad.size:
            raise ValueError(f"sample {ids[bad[0]]!r} modality {name!r} has non-finite entries")


def _stacked(modalities: tuple[ModalityDescriptor, ...], samples: list[Sample]) -> tuple:
    """The records' ids, labels, feature matrices and presence, for the
    constructor, which checks them; raises on a record that cannot be
    stacked: a label that is not an integer, an undeclared modality, or a
    vector that is not an array of its modality's dim."""
    n, features = len(samples), [s.features for s in samples]
    presence = np.array([s.presence(modalities) for s in samples], dtype=bool).reshape(n, len(modalities))
    if presence.sum() != sum(map(len, features)):
        raise ValueError("a sample carries an undeclared modality")
    matrices = []
    for m, present in zip(modalities, presence.T):
        vecs = [f[m.name] for f in features if m.name in f]
        if {getattr(v, "shape", None) for v in vecs} - {(m.dim,)}:
            raise ValueError(f"modality {m.name!r} holds a vector that is not an array of shape ({m.dim},)")
        matrix = np.zeros((n, m.dim))
        if vecs:
            matrix[present] = np.stack(vecs)
        matrices.append(matrix)
    labels = np.array([operator.index(s.label) for s in samples], dtype=np.int64)
    return [s.id for s in samples], labels, matrices, presence


def _check_each_sample(samples: list[Sample], class_count: int, dims: dict[str, int]) -> None:
    """Check sample by sample, in order, raising for the first violation."""
    seen: set[str] = set()
    for s in samples:
        if s.id in seen:
            raise ValueError(f"duplicate sample id {s.id!r}")
        seen.add(s.id)
        if not s.features:
            raise ValueError(f"sample {s.id!r} has no modalities")
        if not (0 <= s.label < class_count):
            raise ValueError(f"sample {s.id!r} label {s.label} outside [0, {class_count})")
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


def _header_obj(manifest: DatasetManifest) -> dict:
    return {
        "modalities": [{"name": m.name, "dim": m.dim} for m in manifest.modalities],
        "class_count": manifest.class_count,
        "split": manifest.split,
    }


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write header line plus one record line per sample, UTF-8 JSONL."""
    order = [m.name for m in manifest.modalities]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_header_obj(manifest), ensure_ascii=False) + "\n")
        for s in manifest.samples:
            feats = {name: s.features[name].tolist() for name in order if name in s.features}
            rec = {"id": s.id, "label": s.label, "features": feats}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _manifest_line(path: str | Path, lineno: int, text: str) -> Entries:
    """A manifest line's JSON object; looking up a key it lacks raises
    ValueError naming the file, the line and the key."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{lineno}: {err}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
    return Entries(f"{path}:{lineno}", "key", obj)


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(where: str, value: object, what: str, kind: type):
    """value, which must be of exactly this JSON type (true is not an
    integer); else ValueError naming where and what."""
    if type(value) is not kind:
        raise ValueError(f"{where}: {what} must be {_JSON_KINDS[kind]}, got {json.dumps(value)[:80]}")
    return value


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read a manifest, raising ValueError naming the file and the line
    for anything that is not one: bad JSON, a missing key, a value of the
    wrong type, or a manifest DatasetManifest.from_records rejects."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty manifest file")
    at = f"{path}:1"
    head = _manifest_line(path, 1, lines[0])
    modalities = []
    for i, entry in enumerate(_typed(at, head["modalities"], "modalities", list)):
        what = f"modalities[{i}]"
        m = Entries(f"{at}: {what}", "key", _typed(at, entry, what, dict))
        modalities.append(ModalityDescriptor(_typed(at, m["name"], f"{what}.name", str), _typed(at, m["dim"], f"{what}.dim", int)))
    class_count = _typed(at, head["class_count"], "class_count", int)
    split = _typed(at, head["split"], "split", str)
    samples = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        at = f"{path}:{lineno}"
        rec = _manifest_line(path, lineno, ln)
        feats = {}
        for name, values in _typed(at, rec["features"], "features", dict).items():
            try:
                if type(values) is not list or not set(map(type, values)) <= {int, float}:
                    raise TypeError  # a string or a boolean is not a JSON number
                feats[name] = np.array(values, dtype=np.float64)
            except (TypeError, OverflowError):
                raise ValueError(f"{at}: features[{name!r}] is not a list of numbers") from None
        sample_id = _typed(at, rec["id"], "id", str)
        samples.append(Sample(id=sample_id, label=_typed(at, rec["label"], "label", int), features=feats))
    return DatasetManifest.from_records(tuple(modalities), class_count, split, samples)


@dataclass(frozen=True)
class SynthConfig:
    """Gaussian mixture generator settings.

    Per class and modality a centroid is drawn componentwise from
    Normal(0, centroid_scale^2); each sample adds Normal(0, noise_scale^2)
    noise. Centroids depend on (seed,) only, noise on (seed, split), so
    train and test splits share centroids.
    """

    class_count: int = 4
    modalities: tuple[str, ...] = ("image", "text")
    dims: tuple[int, ...] = (16, 16)
    samples_per_class: int = 50
    centroid_scale: float = 3.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        if len(self.modalities) != len(self.dims):
            raise ValueError("modalities and dims must have equal length")
        if len(set(self.modalities)) != len(self.modalities):
            raise ValueError(f"duplicate modality names: {self.modalities}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.centroid_scale < 0 or self.noise_scale < 0:
            raise ValueError("scales must be nonnegative")


def synth_centroids(cfg: SynthConfig) -> dict[tuple[int, str], np.ndarray]:
    """Class/modality centroids as the generator draws them."""
    gen = rng.substream(cfg.seed, "synth", "centroids")
    out: dict[tuple[int, str], np.ndarray] = {}
    for c in range(cfg.class_count):
        for name, dim in zip(cfg.modalities, cfg.dims):
            out[(c, name)] = rng.normal(gen, dim, scale=cfg.centroid_scale)
    return out


def synth_generate(cfg: SynthConfig, split: str = "train", samples_per_class: int | None = None) -> DatasetManifest:
    """Fully aligned synthetic manifest; same cfg and split give identical output."""
    per_class = cfg.samples_per_class if samples_per_class is None else samples_per_class
    centroids = synth_centroids(cfg)
    # One draw for the split, in the order per-sample rng.normal calls take it
    widths = [2 * ((dim + 1) // 2) for dim in cfg.dims]
    starts = np.cumsum([0, *widths])
    uniforms = rng.substream(cfg.seed, "synth", "noise", split).random((cfg.class_count * per_class, starts[-1]))
    labels = np.repeat(np.arange(cfg.class_count, dtype=np.int64), per_class)
    heads = [f"{split}-{c:02d}-" for c in range(cfg.class_count)]
    tails = [f"{j:05d}" for j in range(per_class)]
    features = []
    for name, dim, a, w in zip(cfg.modalities, cfg.dims, starts, widths):
        block = cfg.noise_scale * rng.box_muller(uniforms[:, a : a + w], dim)
        # noise + centroid: the same sum, bit for bit, as centroid + noise
        block += np.stack([centroids[(c, name)] for c in range(cfg.class_count)])[labels]
        features.append(block)
    return DatasetManifest(
        modalities=tuple(ModalityDescriptor(n, d) for n, d in zip(cfg.modalities, cfg.dims)),
        class_count=cfg.class_count,
        split=split,
        ids=[head + tail for head in heads for tail in tails],
        labels=labels,
        features=features,
        presence=np.ones((labels.size, len(cfg.dims)), dtype=bool),
    )


def pattern_labels(modalities: tuple[ModalityDescriptor, ...]) -> list[str]:
    """The 2^M - 1 nonempty presence patterns, ordered by ascending bitmask."""
    m = len(modalities)
    labels = []
    for bits in range(1, 2**m):
        present = [modalities[i].name for i in range(m) if bits >> i & 1]
        labels.append("+".join(present))
    return labels


@dataclass
class CountTable:
    """Dense per-(client, class, pattern) sample counts, a (K, C, P) array."""

    patterns: list[str]
    counts: np.ndarray

    def rows(self) -> list[tuple[int, int, str, int]]:
        return [(k, c, self.patterns[p], int(n)) for (k, c, p), n in np.ndenumerate(self.counts)]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["client", "class", "pattern", "count"])
            writer.writerows(self.rows())


def modality_stats(partition, manifest: DatasetManifest) -> CountTable:
    """Count partition samples by client, label, and effective presence
    pattern; a mask's pattern is the one whose bitmask is its bit value."""
    rows, sizes, width = partition.rows, np.diff(partition.bounds), len(manifest.modalities)
    pattern = partition.masks @ (1 << np.arange(width)) - 1
    if (pattern < 0).any():
        raise ValueError(f"sample {manifest.ids[rows[np.argmin(pattern)]]!r} has an all-false mask")
    shape = (len(sizes), manifest.class_count, 2**width - 1)
    cell = np.ravel_multi_index((np.repeat(np.arange(len(sizes)), sizes), manifest.labels[rows], pattern), shape)
    return CountTable(patterns=pattern_labels(manifest.modalities), counts=np.bincount(cell, minlength=np.prod(shape)).reshape(shape))
