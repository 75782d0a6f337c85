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
total depth is encoder_depth + trunk_depth + 1. The forward and backward
passes read that layout from the LayerSpec fields, not from layer names.

Forward and backward are written out by hand in float64; gradients are
exact, not approximated.

make_batch assembles a client's whole shard, or a chunk of the test set,
once per run; minibatches are row-takes of a shard (Batch.take).
Evaluation keeps no activations and reuses one forward_scratch: a
512-row, 32-wide activation is 128 KiB, glibc's mmap threshold, so a
fresh one per layer would be mapped, or trimmed away, and faulted in.

An AdapterDelta may hold a (C, P) matrix and a Batch a leading client
axis; loss_and_grad is written over that optional axis, so one code path
trains one client or a lockstep group of C (client.local_train).
Minibatches are never padded to a common row count: rows are the inner
dimension of the weight-gradient products, so padding would change their
summation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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

    def __post_init__(self) -> None:
        for array in (*self.weights, *self.biases):
            array.flags.writeable = False


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

    `flat` may also be a (C, P) matrix holding C clients' adapters, one
    per row; every view then carries that leading client axis. The views
    are built on first use, so a delta that is only read as a vector
    costs no slicing.
    """

    specs: tuple[LayerSpec, ...]
    rank: int
    adapter_alpha: float
    flat: np.ndarray

    def __post_init__(self) -> None:
        expected = adapter_size(self.specs, self.rank)
        if self.flat.dtype != np.float64 or self.flat.ndim not in (1, 2) or self.flat.shape[-1] != expected:
            raise ValueError(
                f"need float64 rows of length {expected}, got {self.flat.dtype} of shape {self.flat.shape}"
            )

    def _views(self, which: int) -> tuple[np.ndarray, ...]:
        """Every layer's up (which=0) or down (which=1) factor."""
        lead, rank = self.flat.shape[:-1], self.rank
        views, offset = [], 0
        for s in self.specs:
            mid = offset + s.fan_out * rank
            end = mid + rank * s.fan_in
            if which == 0:
                views.append(self.flat[..., offset:mid].reshape(*lead, s.fan_out, rank))
            else:
                views.append(self.flat[..., mid:end].reshape(*lead, rank, s.fan_in))
            offset = end
        return tuple(views)

    @cached_property
    def up(self) -> tuple[np.ndarray, ...]:
        return self._views(0)

    @cached_property
    def down(self) -> tuple[np.ndarray, ...]:
        return self._views(1)

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
        weights.append(rng.normal(gen, (spec.fan_out, spec.fan_in), scale=1.0 / np.sqrt(spec.fan_in)))
        biases.append(np.zeros(spec.fan_out))
        delta.down[i][...] = rng.normal(gen, (cfg.rank, spec.fan_in), scale=0.02)
    base = BaseWeights(specs=specs, weights=weights, biases=biases)
    return base, delta


def compose_delta(delta: AdapterDelta, layer: int) -> np.ndarray:
    """The dense weight update of one layer: scale * up @ down, as a new
    array."""
    update = delta.up[layer] @ delta.down[layer]
    update *= delta.scale
    return update


@dataclass
class Batch:
    """Per-modality feature matrices with zero rows where absent, 0/1
    presence columns, and integer labels. A lockstep group's batch has a
    leading client axis on every array: features (C, rows, dim),
    presence and labels (C, rows)."""

    features: list[np.ndarray]
    presence: list[np.ndarray]
    labels: np.ndarray

    def __len__(self) -> int:
        """Rows per client."""
        return int(self.labels.shape[-1])

    def take(self, rows: np.ndarray) -> "Batch":
        """The rows at the given positions, in that order, as a new batch.
        With a client axis, rows is (C, k) and client c takes rows[c]."""
        index = (rows,) if rows.ndim == 1 else (np.arange(rows.shape[0])[:, None], rows)
        return Batch(
            features=[f[index] for f in self.features],
            presence=[p[index] for p in self.presence],
            labels=self.labels[index],
        )

    def freeze(self) -> "Batch":
        """Write-protect every array of a batch that is built once and
        reused; returns the batch."""
        for array in (*self.features, *self.presence, self.labels):
            array.flags.writeable = False
        return self


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


def effective_weights(base: BaseWeights, delta: AdapterDelta) -> list[np.ndarray]:
    """Every layer's base weight plus its composed adapter update."""
    return [base.weights[i] + compose_delta(delta, i) for i in range(len(base.specs))]


def _encoder_depth(specs: tuple[LayerSpec, ...], modality_count: int) -> int:
    """Encoder layers per modality. An encoder depth holds one layer per
    modality, a trunk or head depth one layer, so the layers outnumber the
    depths by (modality_count - 1) * encoder_depth. With one modality the
    encoder and the trunk are a single chain and need no split."""
    if modality_count < 2:
        return 0
    return (len(specs) - len({s.depth for s in specs})) // (modality_count - 1)


def forward_scratch(base: BaseWeights, rows: int) -> np.ndarray:
    """Three blocks as wide as the widest layer, for up to `rows` rows."""
    return np.empty((3, rows * max(max(s.fan_in, s.fan_out) for s in base.specs)))


def _run_forward(base: BaseWeights, weights: list[np.ndarray], batch: Batch, scratch: np.ndarray | None = None):
    """Logits plus each layer's input and post-tanh output (None for the
    head), in layer_specs order. With a client axis on the batch and the
    weights, np.matmul runs every client's product in one call, each
    bit for bit the 2-D product of that client alone.

    With scratch (forward_scratch) the lists stay empty: tanh layers
    alternate between blocks 0 and 1, and the encodings are copied side by
    side into block 2, the trunk's input. Each block is a contiguous view
    shaped like the fresh array it replaces, so the bytes stay the same."""
    specs = base.specs
    modality_count = len(batch.features)
    per_mod = _encoder_depth(specs, modality_count)
    head = len(specs) - 1
    inputs: list[np.ndarray] = []
    outputs: list[np.ndarray | None] = []

    def block(k: int, width: int) -> np.ndarray:
        shape = (*batch.labels.shape, width)
        return np.empty(shape) if scratch is None else scratch[k, : batch.labels.size * width].reshape(shape)

    def chain(layers: range, u: np.ndarray, k: int) -> np.ndarray:
        """Run the tanh layers on u; they write blocks k ^ 1, k, k ^ 1, ..."""
        for layer in layers:
            k ^= 1
            h = np.matmul(u, weights[layer].swapaxes(-1, -2), out=block(k, specs[layer].fan_out))
            h += base.biases[layer]
            np.tanh(h, out=h)
            if scratch is None:
                inputs.append(u)
                outputs.append(h)
            u = h
        return u

    fused = block(2, specs[modality_count * per_mod].fan_in)
    offset = 0
    for m, features in enumerate(batch.features):
        u = np.concatenate([features, batch.presence[m][..., None]], axis=-1, out=block(0, features.shape[-1] + 1))
        u = chain(range(m * per_mod, (m + 1) * per_mod), u, 0)
        fused[..., offset : offset + u.shape[-1]] = u
        offset += u.shape[-1]
    u = chain(range(modality_count * per_mod, head), fused, 1)
    logits = u @ weights[head].swapaxes(-1, -2)
    logits += base.biases[head]
    if scratch is None:
        inputs.append(u)
        outputs.append(None)
    return logits, inputs, outputs


def forward(
    base: BaseWeights,
    delta: AdapterDelta,
    batch: Batch,
    weights: list[np.ndarray] | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Class logits, shape (len(batch), class_count). A caller scoring
    several batches with one delta passes effective_weights(base, delta)
    so they are composed once, and one forward_scratch(base, rows) for all."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    logits, _, _ = _run_forward(base, effective_weights(base, delta) if weights is None else weights, batch, scratch)
    return logits


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(z)
    return expz / expz.sum(axis=-1, keepdims=True)


def _softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy over the rows (one per client along a leading
    axis) and its gradient with respect to the logits."""
    probs = softmax_probs(logits)
    n = logits.shape[-2]
    rows = probs.reshape(-1, probs.shape[-1])
    at = (np.arange(rows.shape[0]), labels.reshape(-1))
    picked = rows[at].reshape(labels.shape)
    loss = -np.mean(np.log(picked), axis=-1)
    rows[at] -= 1.0
    return loss, probs / n


def loss_and_grad(
    base: BaseWeights,
    delta: AdapterDelta,
    batch: Batch,
    reg_ctx=None,
    grad: AdapterDelta | None = None,
) -> tuple[float | np.ndarray, AdapterDelta]:
    """Mean softmax cross-entropy (plus the proximal term when reg_ctx is
    given) and its exact gradient with respect to every adapter pair.

    A delta with a client axis, (C, P), trains C clients in lockstep on a
    batch with the same leading axis; the loss is then a (C,) vector.
    grad, when given, is a buffer shaped like delta that is zeroed and
    filled, so a training loop allocates it and its views once.

    Each layer's update is composed once and serves both the proximal
    term and the effective weight. reg_ctx, when supplied, must expose
    value_and_grad(delta, composed, grad), which returns its value and
    adds its gradient into grad.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    if grad is None:
        grad = replace(delta, flat=np.zeros_like(delta.flat))
    else:
        grad.flat.fill(0.0)
    specs = base.specs
    updates = [compose_delta(delta, i) for i in range(len(specs))]
    reg_value = None if reg_ctx is None else reg_ctx.value_and_grad(delta, updates, grad)[0]
    weights = [np.add(base.weights[i], u, out=u) for i, u in enumerate(updates)]
    logits, inputs, outputs = _run_forward(base, weights, batch)
    loss, dlogits = _softmax_xent(logits, batch.labels)
    scale = delta.scale

    def accumulate(layer: int, dz: np.ndarray) -> None:
        dw = dz.swapaxes(-1, -2) @ inputs[layer]
        grad.up[layer][...] += scale * (dw @ delta.down[layer].swapaxes(-1, -2))
        grad.down[layer][...] += scale * (delta.up[layer].swapaxes(-1, -2) @ dw)

    def backprop(layers: range, d: np.ndarray, to_input: bool) -> np.ndarray:
        """Carry d, the gradient at the output of the tanh chain `layers`,
        back through it, accumulating every layer's factors; the gradient
        at the chain's input is computed only when to_input asks for it."""
        for layer in reversed(layers):
            h = outputs[layer]
            dz = d * (1.0 - h * h)
            accumulate(layer, dz)
            if to_input or layer != layers[0]:
                d = dz @ weights[layer]
        return d

    modality_count = len(batch.features)
    per_mod = _encoder_depth(specs, modality_count)
    head = len(specs) - 1
    accumulate(head, dlogits)
    dstream = backprop(range(modality_count * per_mod, head), dlogits @ weights[head], per_mod > 0)
    if per_mod > 0:
        # dstream spans the concatenated encodings, one stack's fan_out each
        offset = 0
        for m in range(modality_count):
            stack = range(m * per_mod, (m + 1) * per_mod)
            width = specs[stack[-1]].fan_out
            backprop(stack, dstream[..., offset : offset + width], False)
            offset += width

    if reg_value is not None:
        loss = loss + reg_value
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
    weights = [arrays[f"{s.name}.weight"] for s in delta.specs]
    biases = [arrays[f"{s.name}.bias"] for s in delta.specs]
    return BaseWeights(specs=delta.specs, weights=weights, biases=biases), delta
