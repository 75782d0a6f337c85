"""Toy multimodal classifier with low-rank adapters.

Architecture: per modality, features plus a presence bit feed a stack of
encoder_depth tanh affine layers; encodings concatenate and run through
trunk_depth tanh affine layers and a final affine head. Absent modalities
contribute zero features and presence bit 0.

Every affine layer carries a frozen base weight and bias plus a trainable
low-rank pair (up: fan_out x rank, down: rank x fan_in); the effective
weight is base + (adapter_alpha / rank) * up @ down. Only the pairs train,
and only the pairs travel between clients and server.

All pairs live in one contiguous float64 vector, AdapterDelta.flat: up
then down, layer by layer, which is also the order of the server's moment
buffers. Per-layer factors are views into it, so local Adam, aggregation
and the server rules work on the vector directly, without conversions.

Depth indexing for layer masks: encoder layers of all modalities share
depth 0..encoder_depth-1, trunk layers follow, the head is last, so the
total depth is encoder_depth + trunk_depth + 1.

Forward and backward are written out by hand in float64; gradients are
exact, not approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import rng
from .data import DatasetManifest
from .tensorio import read_tensor_file, write_tensor_file


@dataclass(frozen=True)
class ModelConfig:
    modality_dims: tuple[int, ...] = (16, 16)
    hidden: int = 32
    encoder_depth: int = 3
    trunk_depth: int = 4
    class_count: int = 4
    rank: int = 4
    adapter_alpha: float = 4.0
    seed: int = 0

    @property
    def depth(self) -> int:
        return self.encoder_depth + self.trunk_depth + 1

    def validate(self) -> None:
        if not self.modality_dims or any(d < 1 for d in self.modality_dims):
            raise ValueError(f"modality_dims must be positive, got {self.modality_dims}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.encoder_depth < 0 or self.trunk_depth < 0:
            raise ValueError("encoder_depth and trunk_depth must be >= 0")
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.adapter_alpha <= 0:
            raise ValueError(f"adapter_alpha must be > 0, got {self.adapter_alpha}")


@dataclass(frozen=True)
class LayerSpec:
    name: str
    fan_in: int
    fan_out: int
    depth: int


def layer_specs(cfg: ModelConfig) -> tuple[LayerSpec, ...]:
    cfg.validate()
    m = len(cfg.modality_dims)
    specs: list[LayerSpec] = []
    for i, dim in enumerate(cfg.modality_dims):
        for e in range(cfg.encoder_depth):
            fan_in = dim + 1 if e == 0 else cfg.hidden
            specs.append(LayerSpec(f"enc{i}.{e}", fan_in, cfg.hidden, e))
    fused = m * cfg.hidden if cfg.encoder_depth > 0 else sum(d + 1 for d in cfg.modality_dims)
    for t in range(cfg.trunk_depth):
        fan_in = fused if t == 0 else cfg.hidden
        specs.append(LayerSpec(f"trunk.{t}", fan_in, cfg.hidden, cfg.encoder_depth + t))
    head_in = cfg.hidden if cfg.trunk_depth > 0 else fused
    specs.append(LayerSpec("head", head_in, cfg.class_count, cfg.encoder_depth + cfg.trunk_depth))
    return tuple(specs)


@dataclass
class BaseWeights:
    """Frozen affine parameters; arrays are write-protected at init."""

    specs: tuple[LayerSpec, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def adapter_size(specs: tuple[LayerSpec, ...], rank: int) -> int:
    """Number of adapter parameters: one up and one down factor per layer."""
    return sum(rank * (s.fan_out + s.fan_in) for s in specs)


@dataclass(frozen=True)
class AdapterDelta:
    """Trainable low-rank pairs for every layer, plus composition scale.

    The parameters live in one contiguous float64 vector `flat`, ordered
    up then down, layer by layer. `up[i]` (fan_out x rank) and `down[i]`
    (rank x fan_in) are tuples of views into it: writing through a view
    changes `flat`, while rebinding a view is an error.
    """

    specs: tuple[LayerSpec, ...]
    rank: int
    adapter_alpha: float
    flat: np.ndarray
    up: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    down: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expected = adapter_size(self.specs, self.rank)
        if self.flat.dtype != np.float64 or self.flat.shape != (expected,):
            raise ValueError(
                f"need a float64 vector of length {expected}, got {self.flat.dtype} of shape {self.flat.shape}"
            )
        ups, downs, offset = [], [], 0
        for s in self.specs:
            mid = offset + s.fan_out * self.rank
            end = mid + self.rank * s.fan_in
            ups.append(self.flat[offset:mid].reshape(s.fan_out, self.rank))
            downs.append(self.flat[mid:end].reshape(self.rank, s.fan_in))
            offset = end
        object.__setattr__(self, "up", tuple(ups))
        object.__setattr__(self, "down", tuple(downs))

    @property
    def scale(self) -> float:
        return self.adapter_alpha / self.rank


def init_model(cfg: ModelConfig) -> tuple[BaseWeights, AdapterDelta]:
    """Seeded init: base weights Normal(0, 1/fan_in), biases zero,
    up pairs zero (so the initial delta composes to nothing), down pairs
    Normal(0, 0.02^2)."""
    specs = layer_specs(cfg)
    for spec in specs:
        if cfg.rank > min(spec.fan_in, spec.fan_out):
            raise ValueError(
                f"rank {cfg.rank} exceeds fan of layer {spec.name!r} "
                f"({spec.fan_out}x{spec.fan_in})"
            )
    gen = rng.substream(cfg.seed, "model-init")
    delta = AdapterDelta(specs, cfg.rank, cfg.adapter_alpha, np.zeros(adapter_size(specs, cfg.rank)))
    weights, biases = [], []
    for i, spec in enumerate(specs):
        w = rng.normal(gen, (spec.fan_out, spec.fan_in), scale=1.0 / np.sqrt(spec.fan_in))
        b = np.zeros(spec.fan_out)
        w.flags.writeable = False
        b.flags.writeable = False
        weights.append(w)
        biases.append(b)
        delta.down[i][...] = rng.normal(gen, (cfg.rank, spec.fan_in), scale=0.02)
    base = BaseWeights(specs=specs, weights=weights, biases=biases)
    return base, delta


def compose_delta(delta: AdapterDelta, layer: int) -> np.ndarray:
    """The dense weight update of one layer: scale * up @ down."""
    return delta.scale * (delta.up[layer] @ delta.down[layer])


@dataclass
class Batch:
    """Per-modality feature matrices with zero rows where absent, 0/1
    presence columns, and integer labels."""

    features: list[np.ndarray]
    presence: list[np.ndarray]
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def make_batch(
    manifest: DatasetManifest,
    sample_ids: list[str],
    masks: list[tuple[bool, ...]] | None = None,
) -> Batch:
    """Assemble a batch in the given id order; masks default to manifest
    presence and may only switch present modalities off, never on."""
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


def _effective_weight(base: BaseWeights, delta: AdapterDelta, layer: int) -> np.ndarray:
    return base.weights[layer] + compose_delta(delta, layer)


def _run_forward(base: BaseWeights, delta: AdapterDelta, batch: Batch):
    """Logits plus per-layer caches (input, post-tanh output or None for
    the head, effective weight), in layer_specs order."""
    cfg_m = len(batch.features)
    specs = base.specs
    enc_per_mod = sum(1 for s in specs if s.name.startswith("enc0."))
    caches: list[tuple[np.ndarray, np.ndarray | None, np.ndarray]] = []
    layer = 0
    encoded = []
    for m in range(cfg_m):
        u = np.concatenate([batch.features[m], batch.presence[m][:, None]], axis=1)
        for _ in range(enc_per_mod):
            w = _effective_weight(base, delta, layer)
            h = np.tanh(u @ w.T + base.biases[layer])
            caches.append((u, h, w))
            u = h
            layer += 1
        encoded.append(u)
    u = np.concatenate(encoded, axis=1)
    while specs[layer].name != "head":
        w = _effective_weight(base, delta, layer)
        h = np.tanh(u @ w.T + base.biases[layer])
        caches.append((u, h, w))
        u = h
        layer += 1
    w = _effective_weight(base, delta, layer)
    logits = u @ w.T + base.biases[layer]
    caches.append((u, None, w))
    return logits, caches, enc_per_mod


def forward(base: BaseWeights, delta: AdapterDelta, batch: Batch) -> np.ndarray:
    """Class logits, shape (len(batch), class_count)."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    logits, _, _ = _run_forward(base, delta, batch)
    return logits


def _softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(picked)))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    return expz / expz.sum(axis=1, keepdims=True)


def loss_and_grad(
    base: BaseWeights,
    delta: AdapterDelta,
    batch: Batch,
    reg_ctx=None,
) -> tuple[float, AdapterDelta]:
    """Mean softmax cross-entropy (plus the proximal term when reg_ctx is
    given) and its exact gradient with respect to every adapter pair.

    reg_ctx, when supplied, must expose value_and_grad(delta) returning a
    scalar and an AdapterDelta-shaped gradient.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    logits, caches, enc_per_mod = _run_forward(base, delta, batch)
    loss, dlogits = _softmax_xent(logits, batch.labels)
    grad = replace(delta, flat=np.zeros_like(delta.flat))
    scale = delta.scale

    def accumulate(layer: int, dz: np.ndarray, u: np.ndarray) -> None:
        dw = dz.T @ u
        grad.up[layer][...] += scale * (dw @ delta.down[layer].T)
        grad.down[layer][...] += scale * (delta.up[layer].T @ dw)

    m_count = len(batch.features)
    head_idx = len(base.specs) - 1
    trunk_count = head_idx - enc_per_mod * m_count

    u, _, w = caches[head_idx]
    accumulate(head_idx, dlogits, u)
    dstream = dlogits @ w
    for t in reversed(range(trunk_count)):
        layer = enc_per_mod * m_count + t
        u, h, w = caches[layer]
        dz = dstream * (1.0 - h * h)
        accumulate(layer, dz, u)
        dstream = dz @ w
    if enc_per_mod > 0:
        hidden = caches[0][1].shape[1]
        for m in range(m_count):
            dmod = dstream[:, m * hidden : (m + 1) * hidden]
            for e in reversed(range(enc_per_mod)):
                layer = m * enc_per_mod + e
                u, h, w = caches[layer]
                dz = dmod * (1.0 - h * h)
                accumulate(layer, dz, u)
                dmod = dz @ w

    if reg_ctx is not None:
        reg_value, reg_grad = reg_ctx.value_and_grad(delta)
        loss += reg_value
        grad.flat[...] += reg_grad.flat
    return loss, grad


def adapter_meta(delta: AdapterDelta) -> dict:
    """The adapter's shape metadata, as written into checkpoint headers."""
    return {
        "rank": delta.rank,
        "adapter_alpha": delta.adapter_alpha,
        "layers": [
            {"name": s.name, "fan_in": s.fan_in, "fan_out": s.fan_out, "depth": s.depth}
            for s in delta.specs
        ],
    }


def adapter_from_file(meta: dict, arrays: dict[str, np.ndarray]) -> AdapterDelta:
    """Rebuild the flat delta from adapter_meta and per-layer `.up`/`.down`
    arrays, rejecting any array whose shape disagrees with the metadata."""
    specs = tuple(
        LayerSpec(e["name"], int(e["fan_in"]), int(e["fan_out"]), int(e["depth"]))
        for e in meta["layers"]
    )
    rank = int(meta["rank"])
    delta = AdapterDelta(specs, rank, float(meta["adapter_alpha"]), np.zeros(adapter_size(specs, rank)))
    for i, s in enumerate(specs):
        for name, view in ((f"{s.name}.up", delta.up[i]), (f"{s.name}.down", delta.down[i])):
            if arrays[name].shape != view.shape:
                raise ValueError(f"array {name!r} has shape {arrays[name].shape}, expected {view.shape}")
            view[...] = arrays[name]
    return delta


def save_checkpoint(path: str | Path, base: BaseWeights, delta: AdapterDelta) -> None:
    arrays = []
    for i, s in enumerate(base.specs):
        arrays.append((f"{s.name}.weight", base.weights[i]))
        arrays.append((f"{s.name}.bias", base.biases[i]))
        arrays.append((f"{s.name}.up", delta.up[i]))
        arrays.append((f"{s.name}.down", delta.down[i]))
    write_tensor_file(path, {"kind": "model", **adapter_meta(delta)}, arrays)


def load_checkpoint(path: str | Path) -> tuple[BaseWeights, AdapterDelta]:
    meta, arrays = read_tensor_file(path)
    if meta.get("kind") != "model":
        raise ValueError(f"{path}: not a model checkpoint")
    delta = adapter_from_file(meta, arrays)
    weights, biases = [], []
    for s in delta.specs:
        w = arrays[f"{s.name}.weight"]
        b = arrays[f"{s.name}.bias"]
        w.flags.writeable = False
        b.flags.writeable = False
        weights.append(w)
        biases.append(b)
    return BaseWeights(specs=delta.specs, weights=weights, biases=biases), delta
