"""Client partitions and modality-heterogeneity scenario constructors.

A partition assigns every manifest row to exactly one of K clients and
records an effective presence mask per assignment (a subset of what the
manifest sample actually carries, never empty). It is three arrays: the
rows in client order, their (N, M) bool masks and the K + 1 client
bounds, so client k holds rows[bounds[k]:bounds[k + 1]]. Training, the
count table and the client profiles read the arrays whole; only the
writers cut them per client, and sample ids are looked up only when a
partition is written out. Four constructors:

  aligned   Dirichlet(alpha) label skew, all modalities kept everywhere.
  missing   per-sample independent modality drops with probability beta;
            a sample losing everything keeps one modality chosen uniformly.
  cross     a seeded subset of clients keeps only modality 0 on all their
            samples, the rest keep only modality 1 (two modalities only).
  hybrid    per-client coin flips: each modality is kept client-wide with
            probability keep_prob; a client dropping everything retains
            one modality chosen uniformly.

The non-aligned constructors start from an aligned partition, so label
skew and modality damage compose. They take their knobs as ScenarioSpec
checked them when it was built, and the manifest as build_scenario
checked it (fully aligned, and two modalities for cross), and do not
check either again.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from itertools import pairwise
from pathlib import Path

import numpy as np

from . import rng
from .data import DatasetManifest

# The heterogeneity knob each scenario kind reads besides alpha (aligned
# reads alpha alone); ScenarioSpec takes that knob and no other.
SCENARIO_KNOBS = {"aligned": None, "missing": "beta", "cross": "image_only_clients", "hybrid": "keep_prob"}
SCENARIO_KINDS = tuple(SCENARIO_KNOBS)


@dataclass(frozen=True)
class ScenarioSpec:
    """Which constructor to run and with what knobs.

    alpha always applies (label skew comes first); of beta,
    image_only_clients and keep_prob, exactly the kind's SCENARIO_KNOBS
    entry is set.
    """

    kind: str
    clients: int
    alpha: float
    seed: int
    beta: float | None = None
    image_only_clients: int | None = None
    keep_prob: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        needed = SCENARIO_KNOBS[self.kind]
        for name in filter(None, SCENARIO_KNOBS.values()):
            value = getattr(self, name)
            if name == needed and value is None:
                raise ValueError(f"scenario {self.kind!r} requires {name}")
            if name != needed and value is not None:
                raise ValueError(f"scenario {self.kind!r} does not take {name}")
        # a count of clients, or a probability
        high = self.clients if needed == "image_only_clients" else 1
        if needed is not None and not 0 <= self.level() <= high:
            raise ValueError(f"{needed} must lie in [0, {high}], got {self.level()}")

    def level(self) -> float | int:
        """The kind's own heterogeneity knob (alpha for aligned), for
        sweep/report labeling."""
        return getattr(self, SCENARIO_KNOBS[self.kind] or "alpha")

    def to_json_obj(self) -> dict:
        """Every field in declaration order, leaving out unset knobs."""
        return {name: value for name, value in asdict(self).items() if value is not None}


@dataclass(frozen=True)
class ClientPartition:
    """Train-manifest rows (N,) in client order, their effective presence
    masks (N, M) and the client bounds (K + 1,): client k holds
    rows[bounds[k]:bounds[k + 1]]. All three are write-protected."""

    rows: np.ndarray
    masks: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        self.rows.flags.writeable = self.masks.flags.writeable = self.bounds.flags.writeable = False

    def sizes(self) -> list[int]:
        return np.diff(self.bounds).tolist()

    def total(self) -> int:
        return len(self.rows)


def largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, proportional up to rounding.

    Floor everything, then hand the leftover units to the largest
    fractional remainders (ties broken by lower index).
    """
    raw = np.asarray(proportions, dtype=np.float64) * total
    base = np.floor(raw).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:leftover]] += 1
    return base


def dirichlet_partition(manifest: DatasetManifest, clients: int, alpha: float, seed: int) -> ClientPartition:
    """Label-skewed split: per class, client shares ~ Dirichlet(alpha * 1_K).
    Each client gets its rows class by class, in draw order, under their
    manifest presence."""
    gen = rng.substream(seed, "dirichlet")
    drawn, owners = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for c in range(manifest.class_count):
        idx = np.flatnonzero(manifest.labels == c)
        if idx.size == 0:
            continue
        drawn.append(idx[gen.permutation(idx.size)])
        shares = gen.dirichlet(np.full(clients, alpha))
        # Only a degenerate draw (all-zero shares at alpha=1e308) can leave
        # rows unassigned; a valid manifest's presence rows are nonempty
        # masks already.
        counts = largest_remainder(shares, idx.size) if np.isfinite(shares).all() else None
        if counts is None or counts.sum() != idx.size:
            raise ValueError(f"alpha={alpha} draws degenerate Dirichlet shares for class {c}")
        owners.append(np.repeat(np.arange(clients), counts))
    owner = np.concatenate(owners)
    # one stable sort by owner keeps each client's rows in draw order
    rows = np.concatenate(drawn)[np.argsort(owner, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=clients))])
    return ClientPartition(rows, manifest.presence[rows], bounds)


def apply_missing(partition: ClientPartition, beta: float, seed: int) -> ClientPartition:
    """Drop each modality of each sample independently with probability beta.

    A sample that would lose every modality keeps one chosen uniformly, so
    masks stay nonempty even at beta = 1.
    """
    gen = rng.substream(seed, "missing")
    masks = np.empty(partition.masks.shape, dtype=bool)
    for keep in masks:
        keep[:] = gen.random(keep.size) >= beta
        if not keep.any():
            keep[int(gen.integers(keep.size))] = True
    return replace(partition, masks=masks)


def _client_masks(partition: ClientPartition, table: np.ndarray) -> ClientPartition:
    """Every client's rows under its own row of the (K, M) table."""
    return replace(partition, masks=np.repeat(table, np.diff(partition.bounds), axis=0))


def apply_cross(partition: ClientPartition, image_only_clients: int, seed: int) -> ClientPartition:
    """Split clients by modality: a seeded subset keeps only modality 0,
    the rest only modality 1."""
    gen = rng.substream(seed, "cross")
    clients = len(partition.bounds) - 1
    table = np.tile([False, True], (clients, 1))
    table[gen.choice(clients, size=image_only_clients, replace=False)] = (True, False)
    return _client_masks(partition, table)


def apply_hybrid(partition: ClientPartition, keep_prob: float, seed: int) -> ClientPartition:
    """Client-wide modality coin flips: keep each with probability keep_prob.

    A client flipping everything away retains one modality chosen
    uniformly. Every sample of a client shares the client's mask.
    """
    gen = rng.substream(seed, "hybrid")
    table = np.empty((len(partition.bounds) - 1, partition.masks.shape[1]), dtype=bool)
    for keep in table:
        keep[:] = gen.random(keep.size) < keep_prob
        if not keep.any():
            keep[int(gen.integers(keep.size))] = True
    return _client_masks(partition, table)


_MODALITY_TREATMENT = {"missing": apply_missing, "cross": apply_cross, "hybrid": apply_hybrid}


def build_scenario(manifest: DatasetManifest, spec: ScenarioSpec) -> ClientPartition:
    """Aligned Dirichlet split, then the scenario's modality treatment. A
    treatment damages modalities itself, so it needs every sample to carry
    every modality, and cross needs exactly two."""
    if spec.kind != "aligned":
        lacking = np.flatnonzero(~manifest.presence.all(axis=1))
        if lacking.size:
            row = lacking[0]
            name = manifest.modalities[int(np.argmin(manifest.presence[row]))].name
            raise ValueError(f"scenario {spec.kind!r} needs a fully aligned train manifest; sample {manifest.ids[row]!r} lacks {name!r}")
    if spec.kind == "cross" and len(manifest.modalities) != 2:
        raise ValueError(f"scenario 'cross' needs exactly 2 modalities, got {len(manifest.modalities)}")
    base = dirichlet_partition(manifest, spec.clients, spec.alpha, rng.seed_for(spec.seed, "labels"))
    if spec.kind == "aligned":
        return base
    return _MODALITY_TREATMENT[spec.kind](base, spec.level(), rng.seed_for(spec.seed, "modality"))


def save_partition(partition: ClientPartition, manifest: DatasetManifest, spec: ScenarioSpec, path: str | Path) -> None:
    """The spec and, per client, each sample's id and effective mask."""
    ids, rows, masks = manifest.ids, partition.rows.tolist(), partition.masks.tolist()
    obj = {
        "spec": spec.to_json_obj(),
        "clients": [
            {"id": k, "samples": [{"sid": ids[row], "mask": mask} for row, mask in zip(rows[a:b], masks[a:b])]}
            for k, (a, b) in enumerate(pairwise(partition.bounds.tolist()))
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, indent=1) + "\n")
