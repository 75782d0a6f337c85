"""Client partitions and modality-heterogeneity scenario constructors.

A partition assigns every manifest sample to exactly one of K clients and
records an effective presence mask per assignment (a subset of what the
manifest sample actually carries, never empty). Four constructors:

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
checked them when it was built, and do not check them again.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import rng
from .data import DatasetManifest

# The heterogeneity knob each scenario kind reads besides alpha (aligned
# reads alpha alone); ScenarioSpec takes that knob and no other.
SCENARIO_KNOBS = {"aligned": None, "missing": "beta", "cross": "image_only_clients", "hybrid": "keep_prob"}
SCENARIO_KINDS = tuple(SCENARIO_KNOBS)
CLIENT_KINDS = ("aligned", "partial_missing", "single_modality")


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


@dataclass
class ClientSlot:
    """One client's assignment: sample ids plus effective masks, aligned."""

    sample_ids: list[str] = field(default_factory=list)
    masks: list[tuple[bool, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sample_ids)


@dataclass
class ClientPartition:
    clients: list[ClientSlot]

    def sizes(self) -> list[int]:
        return [len(slot) for slot in self.clients]

    def total(self) -> int:
        return sum(self.sizes())


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
    """Label-skewed split: per class, client shares ~ Dirichlet(alpha * 1_K)."""
    gen = rng.substream(seed, "dirichlet")
    slots = [ClientSlot() for _ in range(clients)]
    ids = manifest.ids
    presence = list(map(tuple, manifest.presence.tolist()))
    for c in range(manifest.class_count):
        idx = np.flatnonzero(manifest.labels == c)
        if idx.size == 0:
            continue
        idx = idx[gen.permutation(idx.size)]
        shares = gen.dirichlet(np.full(clients, alpha))
        # The slots are disjoint slices of the class's rows, and a valid
        # manifest's presence rows are nonempty masks; only a degenerate
        # draw (all-zero shares at alpha=1e308) can leave rows unassigned.
        counts = largest_remainder(shares, idx.size) if np.isfinite(shares).all() else None
        if counts is None or counts.sum() != idx.size:
            raise ValueError(f"alpha={alpha} draws degenerate Dirichlet shares for class {c}")
        start = 0
        for k in range(clients):
            chosen = idx[start : start + counts[k]].tolist()
            slots[k].sample_ids.extend(ids[i] for i in chosen)
            slots[k].masks.extend(presence[i] for i in chosen)
            start += counts[k]
    return ClientPartition(clients=slots)


def _require_aligned(partition: ClientPartition, op: str) -> int:
    width = None
    for k, slot in enumerate(partition.clients):
        for sid, mask in zip(slot.sample_ids, slot.masks):
            if width is None:
                width = len(mask)
            if not all(mask):
                raise ValueError(f"{op} needs a fully aligned input; sample {sid!r} is already masked")
    if width is None:
        raise ValueError(f"{op} got a partition with no samples")
    return width


def apply_missing(partition: ClientPartition, beta: float, seed: int) -> ClientPartition:
    """Drop each modality of each sample independently with probability beta.

    A sample that would lose every modality keeps one chosen uniformly, so
    masks stay nonempty even at beta = 1.
    """
    width = _require_aligned(partition, "apply_missing")
    gen = rng.substream(seed, "missing")
    out = []
    for slot in partition.clients:
        masks = []
        for _ in slot.sample_ids:
            keep = gen.random(width) >= beta
            if not keep.any():
                keep[int(gen.integers(width))] = True
            masks.append(tuple(bool(b) for b in keep))
        out.append(ClientSlot(sample_ids=list(slot.sample_ids), masks=masks))
    return ClientPartition(clients=out)


def apply_cross(partition: ClientPartition, image_only_clients: int, seed: int) -> ClientPartition:
    """Split clients by modality: a seeded subset keeps only modality 0."""
    width = _require_aligned(partition, "apply_cross")
    if width != 2:
        raise ValueError(f"apply_cross needs exactly 2 modalities, got {width}")
    gen = rng.substream(seed, "cross")
    chosen = set(int(i) for i in gen.choice(len(partition.clients), size=image_only_clients, replace=False))
    out = []
    for idx, slot in enumerate(partition.clients):
        mask = (True, False) if idx in chosen else (False, True)
        out.append(ClientSlot(sample_ids=list(slot.sample_ids), masks=[mask] * len(slot)))
    return ClientPartition(clients=out)


def apply_hybrid(partition: ClientPartition, keep_prob: float, seed: int) -> ClientPartition:
    """Client-wide modality coin flips: keep each with probability keep_prob.

    A client flipping everything away retains one modality chosen
    uniformly. Every sample of a client shares the client's mask.
    """
    width = _require_aligned(partition, "apply_hybrid")
    gen = rng.substream(seed, "hybrid")
    out = []
    for slot in partition.clients:
        keep = gen.random(width) < keep_prob
        if not keep.any():
            keep[int(gen.integers(width))] = True
        mask = tuple(bool(b) for b in keep)
        out.append(ClientSlot(sample_ids=list(slot.sample_ids), masks=[mask] * len(slot)))
    return ClientPartition(clients=out)


_MODALITY_TREATMENT = {"missing": apply_missing, "cross": apply_cross, "hybrid": apply_hybrid}


def build_scenario(manifest: DatasetManifest, spec: ScenarioSpec) -> ClientPartition:
    """Aligned Dirichlet split, then the scenario's modality treatment."""
    base = dirichlet_partition(manifest, spec.clients, spec.alpha, rng.seed_for(spec.seed, "labels"))
    if spec.kind == "aligned":
        return base
    return _MODALITY_TREATMENT[spec.kind](base, spec.level(), rng.seed_for(spec.seed, "modality"))


def client_missing_rate(slot: ClientSlot, modality_count: int) -> float:
    """Fraction of (sample, modality) slots absent on this client."""
    if len(slot) == 0:
        raise ValueError("client has no samples")
    absent = sum(modality_count - sum(mask) for mask in slot.masks)
    return absent / (len(slot) * modality_count)


def classify_client(slot: ClientSlot) -> str:
    """aligned, partial_missing, or single_modality from effective masks."""
    if len(slot) == 0:
        raise ValueError("client has no samples")
    width = len(slot.masks[0])
    present_counts = [0] * width
    full = 0
    for mask in slot.masks:
        for i, b in enumerate(mask):
            present_counts[i] += int(b)
        full += int(all(mask))
    if any(c == 0 for c in present_counts):
        return "single_modality"
    if full == len(slot):
        return "aligned"
    return "partial_missing"


def save_partition(partition: ClientPartition, spec: ScenarioSpec, path: str | Path) -> None:
    obj = {
        "spec": spec.to_json_obj(),
        "clients": [
            {
                "id": k,
                "samples": [
                    {"sid": sid, "mask": list(mask)}
                    for sid, mask in zip(slot.sample_ids, slot.masks)
                ],
            }
            for k, slot in enumerate(partition.clients)
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, indent=1) + "\n")
