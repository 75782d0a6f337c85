"""Toy multimodal classifier with low-rank adapters.

Architecture: per modality, features plus a presence bit feed a stack of
encoder_depth tanh affine layers; encodings concatenate and run through
trunk_depth tanh affine layers and a final affine head. Absent modalities
contribute zero features and presence bit 0.

Every affine layer carries a frozen base weight, a zero bias, and a
trainable low-rank pair (up: fan_out x rank, down: rank x fan_in); the
effective weight is base + (adapter_alpha / rank) * up @ down. Only the
pairs train, and only the pairs travel between clients and server. The
biases are zero by construction and nothing trains them, so the forward
pass adds none; they are kept only to be written as model.bin's `.bias`
arrays.

Depth indexing for layer masks: encoder layers of all modalities share
depth 0..encoder_depth-1, trunk layers follow, the head is last, so the
total depth is encoder_depth + trunk_depth + 1. BaseWeights reads that
layout off the LayerSpec fields once, not from layer names.

Layers of one (fan_out, fan_in) shape form a shape group (shape_groups),
ordered by (depth, layer index), so any interval of depths is one slice
of a group; the default model has four: 2 x (32 x 17), 7 x (32 x 32),
1 x (32 x 64) and the 4 x 32 head. All pairs live in one contiguous
float64 vector, AdapterDelta.flat, group by group: the group's ups, then
its downs. Per-layer factors and per-group stacks are views into it, so
local Adam, aggregation and the server rules, all elementwise, work on
the vector directly. Weight-shaped vectors (BaseWeights.flat, composed
updates, weight gradients) are grouped the same way. Composing the
updates, adding the base weights, and turning weight gradients into
factor gradients each take one stacked call per group instead of one per
layer; every stacked product is, item by item, the same gemm on the same
operand layout as the per-layer product, so the bytes do not change.

Forward and backward are written out by hand in float64; gradients are
exact, not approximated. Two kinds of work are skipped because they
cannot change a byte. A modality's encoder stack is not run when its
whole input is zero in every row of the batch (a client without that
modality): a zero row gives a +0 pre-activation, since BLAS accumulates
from +0 and there is no bias to add, tanh(+0) = +0, and the stack's
weight gradients are then +0 too; its slice of the trunk input is
written +0 and its weight-gradient slots are zeroed instead.
No pass scans for it: every batch carries the modalities it lacks
(Batch.absent, set when it is built), and a lockstep minibatch those
that no row of its group's shards holds; a minibatch without a modality
that other rows of its group hold runs that stack on +0 input, which by
the same argument writes the same bytes as skipping it. A multiply by
an adapter scale of exactly 1.0 (alpha equal to rank, the default) is
not made: x * 1.0 == x bit for bit.

make_batch gathers every client's shard (the concatenated partition
rows under their masks, client.TrainSet), or a chunk of the test set (a
range of rows), from the manifest's columns once per run. A lockstep
group's epoch is one gather of (C, n) rows of that batch (Batch.take),
which gives it a leading client axis, and its minibatches are slices of
that gather (Batch.split).
Evaluation writes activations only into one reused forward_scratch: a
512-row, 32-wide activation is 128 KiB, glibc's mmap threshold, so a
fresh one per layer would be mapped, or trimmed away, and faulted in.
For the same reason a training loop allocates the step's grouped weights
once and hands them to every loss_and_grad call.

forward, loss_and_grad and metrics.evaluate take the effective weights
(effective_weights) as an optional argument: given, they must already
hold the delta's base weights plus composed updates; None means the
function composes them itself. A run composes each version of the
global adapter once and hands the result to everything that reads it.

An AdapterDelta may hold a (C, P) matrix and a Batch a leading client
axis; loss_and_grad is written over that optional axis. Training always
has it (client.local_train), a group of one as C = 1, so one code path
trains every group.
Minibatches are never padded to a common row count. Padding changes
bytes in the products themselves, not only in the weight-gradient sums
whose inner dimension the rows are: with OpenBLAS on one thread, d @ W
on the 32x17 layer differs at 7 to 12 of the 16 real row counts 1-16
padded to 16 (50 random draws), and every product differs at one real
row.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

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

    def __post_init__(self) -> None:
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
        for spec in layer_specs(self):
            if self.rank > min(spec.fan_in, spec.fan_out):
                raise ValueError(f"rank {self.rank} exceeds fan of layer {spec.name!r} ({spec.fan_out}x{spec.fan_in})")


@dataclass(frozen=True)
class LayerSpec:
    name: str
    fan_in: int
    fan_out: int
    depth: int


def layer_specs(cfg: ModelConfig) -> tuple[LayerSpec, ...]:
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


@dataclass(frozen=True)
class ShapeGroup:
    """The layers of one (fan_out, fan_in) shape, in (depth, layer index)
    order, so the layers of any interval of depths are one slice."""

    fan_out: int
    fan_in: int
    layers: tuple[int, ...]
    depths: tuple[int, ...]

    def span(self, lo: int, hi: int) -> slice:
        """Positions of the layers with lo <= depth < hi."""
        return slice(bisect_left(self.depths, lo), bisect_left(self.depths, hi))


def shape_groups(specs: tuple[LayerSpec, ...]) -> tuple[ShapeGroup, ...]:
    """Layers grouped by shape, groups in order of first appearance."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(specs):
        by_shape.setdefault((s.fan_out, s.fan_in), []).append(i)
    groups = []
    for (fan_out, fan_in), layers in by_shape.items():
        layers.sort(key=lambda i: (specs[i].depth, i))
        groups.append(ShapeGroup(fan_out, fan_in, tuple(layers), tuple(specs[i].depth for i in layers)))
    return tuple(groups)


def _carve(vec: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of vec's last axis, shaped (*leading axes, *shape)."""
    lead, views, offset = vec.shape[:-1], [], 0
    for shape in shapes:
        end = offset + math.prod(shape)
        views.append(vec[..., offset:end].reshape(*lead, *shape))
        offset = end
    return views


def _per_layer(groups: tuple[ShapeGroup, ...], stacks: list[np.ndarray]) -> list[np.ndarray]:
    """Every layer's view into its group's stack, in layer order."""
    views = [None] * sum(len(g.layers) for g in groups)
    for group, stack in zip(groups, stacks):
        for pos, layer in enumerate(group.layers):
            views[layer] = stack[..., pos, :, :]
    return views


class Grouped(NamedTuple):
    """A weight-shaped vector (..., W), laid out group by group
    (shape_groups), with each group's stack (..., layers, fan_out, fan_in)
    and every layer's (..., fan_out, fan_in), in layer order, as views."""

    vec: np.ndarray
    stacks: list[np.ndarray]
    layers: list[np.ndarray]


def grouped(groups: tuple[ShapeGroup, ...], vec: np.ndarray) -> Grouped:
    """vec with its group stacks and per-layer views."""
    stacks = _carve(vec, [(len(g.layers), g.fan_out, g.fan_in) for g in groups])
    return Grouped(vec, stacks, _per_layer(groups, stacks))


def spec_layout(specs: tuple[LayerSpec, ...]) -> tuple[tuple[range, ...], range]:
    """The encoder stacks and the trunk of specs, read off the depths: each
    modality's encoder layers, with no entries when one chain runs (one
    modality or no encoder), and the layers up to the head."""
    # An encoder depth holds one layer per modality, any other depth one,
    # so the layers outnumber the depths by (modalities - 1) * per_mod.
    modalities = sum(s.depth == 0 for s in specs)
    per_mod = (len(specs) - len({s.depth for s in specs})) // (modalities - 1) if modalities > 1 else 0
    encoders = tuple(range(m * per_mod, (m + 1) * per_mod) for m in range(modalities)) if per_mod else ()
    return encoders, range(len(encoders) * per_mod, len(specs) - 1)


def layout_config(specs: tuple[LayerSpec, ...], rank: int, adapter_alpha: float) -> ModelConfig:
    """The ModelConfig whose layout spec_layout reads off specs. Specs
    that run one chain (one modality, or no encoder) read as one modality
    of the first layer's fan-in with no encoder: the same fans and depths
    under other names. ModelConfig's own checks apply."""
    encoders, trunk = spec_layout(specs)
    dims = tuple(specs[stack.start].fan_in - 1 for stack in encoders) or (specs[0].fan_in - 1,)
    return ModelConfig(
        modality_dims=dims,
        hidden=specs[0].fan_out,
        encoder_depth=len(encoders[0]) if encoders else 0,
        trunk_depth=len(trunk),
        class_count=specs[-1].fan_out,
        rank=rank,
        adapter_alpha=adapter_alpha,
    )


@dataclass
class BaseWeights:
    """Frozen affine parameters: weights alone. They are copied into
    `flat`, one vector grouped by shape_groups, and weights[i] becomes
    layer i's view into it. biases[i] is layer i's bias, a zero vector
    built here: nothing trains a bias, the forward pass adds none, and
    only layer_arrays reads them, to write model.bin. Every array is
    write-protected. The layout, from specs (spec_layout): encoders[m],
    modality m's encoder layers, with no entries when one chain runs (one
    modality or no encoder); trunk, the layers up to the head at
    trunk.stop."""

    specs: tuple[LayerSpec, ...]
    weights: list[np.ndarray]
    groups: tuple[ShapeGroup, ...] = field(init=False, repr=False)
    flat: np.ndarray = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    encoders: tuple[range, ...] = field(init=False, repr=False)
    trunk: range = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.groups = shape_groups(self.specs)
        self.flat = np.concatenate([np.stack([self.weights[i] for i in g.layers]).reshape(-1) for g in self.groups])
        self.flat.flags.writeable = False
        self.weights = grouped(self.groups, self.flat).layers
        self.biases = [np.zeros(s.fan_out) for s in self.specs]
        for bias in self.biases:
            bias.flags.writeable = False
        self.encoders, self.trunk = spec_layout(self.specs)


def adapter_size(specs: tuple[LayerSpec, ...], rank: int) -> int:
    """Number of adapter parameters: one up and one down factor per layer."""
    return sum(rank * (s.fan_out + s.fan_in) for s in specs)


@dataclass(frozen=True)
class AdapterDelta:
    """Trainable low-rank pairs for every layer, plus composition scale.

    The parameters live in one contiguous float64 vector `flat`, shape
    group by shape group (`groups`, derived from specs and carried along
    by replace): the group's ups, then its downs. `stacks[g]` is group g's
    (ups, downs), shaped (layers, fan_out, rank) and (layers, rank,
    fan_in); `up[i]` (fan_out x rank) and `down[i]` (rank x fan_in) are
    layer i's factors. All are views into flat: writing through a view
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
    groups: tuple[ShapeGroup, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.groups:
            object.__setattr__(self, "groups", shape_groups(self.specs))
        expected = adapter_size(self.specs, self.rank)
        if self.flat.dtype != np.float64 or self.flat.ndim not in (1, 2) or self.flat.shape[-1] != expected:
            raise ValueError(
                f"need float64 rows of length {expected}, got {self.flat.dtype} of shape {self.flat.shape}"
            )

    @cached_property
    def stacks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        shapes = []
        for g in self.groups:
            shapes += [(len(g.layers), g.fan_out, self.rank), (len(g.layers), self.rank, g.fan_in)]
        views = _carve(self.flat, shapes)
        return tuple(zip(views[0::2], views[1::2]))

    @cached_property
    def up(self) -> tuple[np.ndarray, ...]:
        return tuple(_per_layer(self.groups, [ups for ups, _ in self.stacks]))

    @cached_property
    def down(self) -> tuple[np.ndarray, ...]:
        return tuple(_per_layer(self.groups, [downs for _, downs in self.stacks]))

    @property
    def scale(self) -> float:
        return self.adapter_alpha / self.rank


def init_model(cfg: ModelConfig) -> tuple[BaseWeights, AdapterDelta]:
    """Seeded init: base weights Normal(0, 1/fan_in) (BaseWeights adds
    the zero biases), up pairs zero (so the initial delta composes to
    nothing), down pairs Normal(0, 0.02^2)."""
    specs = layer_specs(cfg)
    gen = rng.substream(cfg.seed, "model-init")
    delta = AdapterDelta(specs, cfg.rank, cfg.adapter_alpha, np.zeros(adapter_size(specs, cfg.rank)))
    weights = []
    for i, spec in enumerate(specs):
        weights.append(rng.normal(gen, (spec.fan_out, spec.fan_in), scale=1.0 / np.sqrt(spec.fan_in)))
        delta.down[i][...] = rng.normal(gen, (cfg.rank, spec.fan_in), scale=0.02)
    return BaseWeights(specs=specs, weights=weights), delta


def compose_updates(delta: AdapterDelta, out: Grouped | None = None) -> Grouped:
    """Every layer's scale * up @ down, one stacked product per shape
    group, written into out or a new grouped vector; layer i's view holds
    scale * (up[i] @ down[i]) bit for bit."""
    if out is None:
        size = sum(s.fan_out * s.fan_in for s in delta.specs)
        out = grouped(delta.groups, np.empty((*delta.flat.shape[:-1], size)))
    for (ups, downs), stack in zip(delta.stacks, out.stacks):
        np.matmul(ups, downs, out=stack)
    if delta.scale != 1.0:
        np.multiply(out.vec, delta.scale, out=out.vec)
    return out


@dataclass
class Batch:
    """Per-modality feature matrices with zero rows where absent, 0/1
    presence columns, and integer labels. A lockstep group's minibatch
    has a leading client axis on every array: features (C, rows, dim),
    presence and labels (C, rows).

    absent holds one flag per modality: True says that the modality's
    features and presence are zero in every row. make_batch takes it from
    its mask, take and split from their caller and their batch; a batch
    built without it scans its arrays for it once, when it is built."""

    features: list[np.ndarray]
    presence: list[np.ndarray]
    labels: np.ndarray
    absent: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if self.absent is None:
            self.absent = tuple(not p.any() and not f.any() for f, p in zip(self.features, self.presence))

    def __len__(self) -> int:
        """Rows per client."""
        return int(self.labels.shape[-1])

    def take(self, rows: np.ndarray, absent: tuple[bool, ...] | None = None) -> "Batch":
        """Rows of a batch without a client axis, gathered as a new batch
        with one: client c's are the rows at positions rows[c], in that
        order; rows is (C, k). absent is the new batch's; None scans."""
        return Batch(
            features=[f[rows] for f in self.features],
            presence=[p[rows] for p in self.presence],
            labels=self.labels[rows],
            absent=absent,
        )

    def split(self, size: int) -> list["Batch"]:
        """Consecutive runs of `size` rows per client (the last may be
        shorter), as views sharing absent; the batch itself when it holds
        no more than `size` rows."""
        if len(self) <= size:
            return [self]
        return [
            Batch(
                features=[f[..., lo : lo + size, :] for f in self.features],
                presence=[p[..., lo : lo + size] for p in self.presence],
                labels=self.labels[..., lo : lo + size],
                absent=self.absent,
            )
            for lo in range(0, len(self), size)
        ]

    def freeze(self) -> "Batch":
        """Write-protect every array of a batch that is built once and
        reused; returns the batch."""
        for array in (*self.features, *self.presence, self.labels):
            array.flags.writeable = False
        return self


def make_batch(manifest: DatasetManifest, rows: np.ndarray | range, masks: np.ndarray | None = None) -> Batch:
    """The manifest's rows, in that order, gathered from its columns.
    masks, one row of M flags per row, default to manifest presence and
    may only switch present modalities off, never on; a masked-off row's
    features are assigned +0.0 (multiplying by the mask would leave -0.0
    where a feature is negative). Raises ValueError naming the sample of
    the first row whose mask is empty or asks for a modality its sample
    lacks."""
    present = manifest.presence[rows]
    mask = present if masks is None else np.asarray(masks, dtype=bool).reshape(present.shape)
    empty, extra = ~mask.any(axis=1), mask & ~present
    bad = np.flatnonzero(empty | extra.any(axis=1))
    if bad.size:
        i = bad[0]
        if empty[i]:
            raise ValueError(f"sample {manifest.ids[rows[i]]!r}: empty effective mask")
        raise ValueError(f"sample {manifest.ids[rows[i]]!r}: mask requests absent modality {manifest.modalities[extra[i].argmax()].name!r}")
    features = [matrix[rows] for matrix in manifest.features]
    for matrix, keep in zip(features, mask.T):
        matrix[~keep] = 0.0
    presence = [keep.astype(np.float64) for keep in mask.T]
    return Batch(features, presence, manifest.labels[rows], absent=tuple((~mask.any(axis=0)).tolist()))


def effective_weights(base: BaseWeights, delta: AdapterDelta, out: Grouped | None = None) -> Grouped:
    """Every layer's base weight plus its composed adapter update, written
    into out or a new grouped vector."""
    weights = compose_updates(delta, out)
    np.add(weights.vec, base.flat, out=weights.vec)
    return weights


def forward_scratch(base: BaseWeights, rows: int) -> np.ndarray:
    """Three blocks as wide as the widest layer, for up to `rows` rows."""
    return np.empty((3, rows * max(max(s.fan_in, s.fan_out) for s in base.specs)))


def _run_forward(
    base: BaseWeights,
    weights: list[np.ndarray],
    batch: Batch,
    scratch: np.ndarray | None = None,
    tape: list | None = None,
) -> np.ndarray:
    """Logits: every layer is its weight product alone, with no bias
    (BaseWeights). With a client axis on the batch and the weights,
    np.matmul runs every client's product in one call, each bit for bit
    the 2-D product of that client alone.

    tape, when given, receives one (input, post-tanh output) pair per
    layer in layer_specs order: the head's output is None, and both of
    every layer of an idle encoder stack (one batch.absent flags), which
    is not run; its slice of the trunk input is written +0, the value
    running it would give. Only the backward pass reads them, so
    evaluation records nothing.

    With scratch (forward_scratch) activations are views that later
    layers overwrite: tanh layers alternate between blocks 0 and 1, and
    the encodings are copied side by side into block 2, the trunk's input.
    Each block is a contiguous view shaped like the fresh array it
    replaces."""
    specs = base.specs

    def block(k: int, width: int) -> np.ndarray:
        shape = (*batch.labels.shape, width)
        return np.empty(shape) if scratch is None else scratch[k, : batch.labels.size * width].reshape(shape)

    def chain(layers: range, u: np.ndarray, k: int) -> np.ndarray:
        """Run the tanh layers on u; they write blocks k ^ 1, k, k ^ 1, ..."""
        for layer in layers:
            k ^= 1
            h = np.matmul(u, weights[layer].swapaxes(-1, -2), out=block(k, specs[layer].fan_out))
            np.tanh(h, out=h)
            if tape is not None:
                tape.append((u, h))
            u = h
        return u

    fused = block(2, specs[base.trunk.start].fan_in)
    if not base.encoders:  # the trunk reads every modality's inputs side by side
        np.concatenate([x for f, p in zip(batch.features, batch.presence) for x in (f, p[..., None])], axis=-1, out=fused)
    offset = 0
    for m, stack in enumerate(base.encoders):
        width = specs[stack[-1]].fan_out
        if batch.absent[m]:
            fused[..., offset : offset + width] = 0.0
            if tape is not None:
                tape += [(None, None)] * len(stack)
        else:
            u = np.concatenate([batch.features[m], batch.presence[m][..., None]], axis=-1, out=block(0, specs[stack[0]].fan_in))
            fused[..., offset : offset + width] = chain(stack, u, 0)
        offset += width
    head = base.trunk.stop
    u = chain(base.trunk, fused, 1)
    logits = u @ weights[head].swapaxes(-1, -2)
    if tape is not None:
        tape.append((u, None))
    return logits


def forward(
    base: BaseWeights,
    delta: AdapterDelta,
    batch: Batch,
    weights: Grouped | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Class logits, shape (len(batch), class_count). A caller scoring
    several batches with one delta passes effective_weights(base, delta)
    so they are composed once, and one forward_scratch(base, rows) for all."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    return _run_forward(base, (effective_weights(base, delta) if weights is None else weights).layers, batch, scratch)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(z)
    return expz / expz.sum(axis=-1, keepdims=True)


def _softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy over the rows (one per client along a leading
    axis) and its gradient with respect to the logits. The mean is the sum
    divided by the row count, as np.mean computes it."""
    probs = softmax_probs(logits)
    n = logits.shape[-2]
    rows = probs.reshape(-1, probs.shape[-1])
    at = (np.arange(rows.shape[0]), labels.reshape(-1))
    picked = rows[at].reshape(labels.shape)
    loss = -(np.log(picked).sum(axis=-1) / n)
    rows[at] -= 1.0
    return loss, probs / n


def loss_and_grad(
    base: BaseWeights,
    delta: AdapterDelta,
    batch: Batch,
    grad: AdapterDelta | None = None,
    weights: Grouped | None = None,
) -> tuple[float | np.ndarray, AdapterDelta]:
    """Mean softmax cross-entropy and its exact gradient with respect to
    every adapter pair.

    A delta with a client axis, (C, P), trains C clients in lockstep on a
    batch with the same leading axis; the loss is then a (C,) vector.
    grad is overwritten when given, and so is weights, a grouped
    weight-shaped vector with delta's leading axes, which must then hold
    delta's effective weights (effective_weights; None composes them
    here). A training loop thus allocates both and their views once: with
    a client axis they outgrow glibc's 128 KiB mmap threshold, so fresh
    ones per step would be mapped and faulted in every step.

    As backprop leaves each weight behind, weights takes that layer's
    weight gradient in its place; the factor gradients are then one
    stacked product per group, so on return weights holds every layer's
    weight gradient, not its effective weight.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    if grad is None:
        grad = replace(delta, flat=np.empty_like(delta.flat))
    composed = effective_weights(base, delta) if weights is None else weights
    weights = composed.layers
    tape: list[tuple[np.ndarray | None, np.ndarray | None]] = []
    logits = _run_forward(base, weights, batch, tape=tape)
    loss, dlogits = _softmax_xent(logits, batch.labels)

    def backprop(layers: range, d: np.ndarray, to_input: bool) -> np.ndarray:
        """Carry d, the gradient at the output of the tanh chain `layers`,
        back through it, writing every layer's weight gradient over its
        weight; the gradient at the chain's input is computed only when
        to_input asks for it."""
        for layer in reversed(layers):
            u, dz = tape[layer]
            # d * (1 - h * h), formed in h: the layer above has read it
            np.multiply(dz, dz, out=dz)
            np.subtract(1.0, dz, out=dz)
            dz *= d
            if to_input or layer != layers[0]:
                d = dz @ weights[layer]
            np.matmul(dz.swapaxes(-1, -2), u, out=weights[layer])
        return d

    head = base.trunk.stop
    dstream = dlogits @ weights[head]
    np.matmul(dlogits.swapaxes(-1, -2), tape[head][0], out=weights[head])
    dstream = backprop(base.trunk, dstream, bool(base.encoders))
    # dstream spans the concatenated encodings, one stack's fan_out each
    offset = 0
    for stack in base.encoders:
        width = base.specs[stack[-1]].fan_out
        if tape[stack[0]][0] is None:  # idle: its weight gradients are +0
            for layer in stack:
                weights[layer][...] = 0.0
        else:
            backprop(stack, dstream[..., offset : offset + width], False)
        offset += width
    for (ups, downs), (dups, ddowns), dw in zip(delta.stacks, grad.stacks, composed.stacks):
        np.matmul(dw, downs.swapaxes(-1, -2), out=dups)
        np.matmul(ups.swapaxes(-1, -2), dw, out=ddowns)
    if delta.scale != 1.0:
        np.multiply(grad.flat, delta.scale, out=grad.flat)
    return loss, grad


# The rules of a checkpoint's adapter keys, in the order adapter_meta
# writes them, and of each `layers` entry: per key, the test its value
# must pass and what that test asks. bool is an int subclass; a JSON true
# is no size and no scale. The rank and every fan and depth are only
# typed here; read_checkpoint's layout rule bounds them.
_INT = (lambda v: type(v) is int, "be an int")
ADAPTER_HEADER = {
    "rank": _INT,
    "adapter_alpha": (lambda v: type(v) in (int, float) and v > 0, "be a number > 0"),  # as ModelConfig
    "layers": (lambda v: type(v) is list and v != [] and all(type(e) is dict for e in v), "be a nonempty list of objects"),
}
LAYER_ENTRY = {"name": (lambda v: type(v) is str, "be a string"), **dict.fromkeys(("fan_in", "fan_out", "depth"), _INT)}


def adapter_meta(delta: AdapterDelta) -> dict:
    """The adapter's shape metadata, as written into checkpoint headers."""
    return {
        "rank": delta.rank,
        "adapter_alpha": delta.adapter_alpha,
        "layers": [{key: getattr(s, key) for key in LAYER_ENTRY} for s in delta.specs],
    }


def layer_arrays(delta: AdapterDelta, base: BaseWeights | None = None) -> list[tuple[str, np.ndarray]]:
    """Each layer's named checkpoint arrays in file order: its base weight
    and bias when base is given, then its up and down factors."""
    arrays = []
    for i, s in enumerate(delta.specs):
        if base is not None:
            arrays += [(f"{s.name}.weight", base.weights[i]), (f"{s.name}.bias", base.biases[i])]
        arrays += [(f"{s.name}.up", delta.up[i]), (f"{s.name}.down", delta.down[i])]
    return arrays


def _expect_names(what: str, got: list[str], want: list[str]) -> None:
    """ValueError naming the first position where got differs from want."""
    for i, (name, expected) in enumerate(itertools.zip_longest(got, want)):
        if name != expected:
            raise ValueError(f"{what} #{i} is {name!r}, expected {expected!r}")


def _check_entries(where: str, entries: dict, rules: dict) -> None:
    """entries must hold the keys of rules alone, in their order, and each
    value must pass its key's test; else ValueError naming where."""
    for key, (test, asks) in rules.items():
        if key in entries and not test(entries[key]):
            raise ValueError(f"{where} key {key!r} must {asks}, got {entries[key]!r:.80}")
    _expect_names(f"{where} key", list(entries), list(rules))


def read_checkpoint(
    path: str | Path, kind: str, header_rules: dict, buffers: tuple[str, ...] = ()
) -> tuple[dict, dict[str, np.ndarray], AdapterDelta]:
    """A checkpoint of `kind`: its header, its arrays, and its adapter. It
    loads if and only if a writer could have written it: the header holds
    "kind", header_rules' keys and ADAPTER_HEADER's alone, in that order,
    each passing its rule, and each `layers` entry LAYER_ENTRY's; the
    layers' fans and depths are those layer_specs gives the ModelConfig
    layout_config reads off them; the arrays are layer_arrays' (base ones
    too in a model checkpoint) and then the adapter-wide `buffers`, alone,
    in that order, each in its shape and finite, and every bias +0."""
    meta, arrays = read_tensor_file(path)
    _check_entries(f"{path}: header", meta, {"kind": (lambda v: v == kind, f"be {kind!r}"), **header_rules, **ADAPTER_HEADER})
    for i, entry in enumerate(meta["layers"]):
        _check_entries(f"{path}: header key 'layers' entry {i}", entry, LAYER_ENTRY)
    specs = tuple(LayerSpec(**entry) for entry in meta["layers"])
    try:
        built = layer_specs(layout_config(specs, meta["rank"], meta["adapter_alpha"]))
    except ValueError as err:
        raise ValueError(f"{path}: header keys 'rank' and 'layers' describe no model: {err}") from None
    if [(s.fan_in, s.fan_out, s.depth) for s in specs] != [(s.fan_in, s.fan_out, s.depth) for s in built]:
        raise ValueError(f"{path}: header key 'layers' holds no layout that layer_specs builds")
    delta = AdapterDelta(specs, meta["rank"], float(meta["adapter_alpha"]), np.zeros(adapter_size(specs, meta["rank"])))
    base = None
    if kind == "model":  # zero base arrays in the shapes the file's must have
        base = BaseWeights(specs, [np.zeros((s.fan_out, s.fan_in)) for s in specs])
    want = layer_arrays(delta, base) + [(name, delta.flat) for name in buffers]
    _expect_names(f"{path}: array", list(arrays), [name for name, _ in want])
    for name, like in want:
        if arrays[name].shape != like.shape:
            raise ValueError(f"{path}: array {name!r} has shape {arrays[name].shape}, expected {like.shape}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: array {name!r} is not finite")
        if name.endswith(".bias") and arrays[name].view(np.uint64).any():  # a -0.0 too: only +0.0 has no bit set
            raise ValueError(f"{path}: array {name!r} is not zero")
    for name, view in layer_arrays(delta):
        view[...] = arrays[name]
    return meta, arrays, delta


def layer_order(delta: AdapterDelta) -> np.ndarray:
    """The flat positions of every layer's up and then down factor, layer
    by layer: vec[layer_order(delta)] lists a parameter vector in layer
    order, whatever the grouping."""
    index = replace(delta, flat=np.arange(delta.flat.shape[-1], dtype=np.float64))
    return np.concatenate([f.reshape(-1) for pair in zip(index.up, index.down) for f in pair]).astype(np.intp)


def save_checkpoint(path: str | Path, base: BaseWeights, delta: AdapterDelta) -> None:
    write_tensor_file(path, {"kind": "model", **adapter_meta(delta)}, layer_arrays(delta, base))


def load_checkpoint(path: str | Path) -> tuple[BaseWeights, AdapterDelta]:
    _, arrays, delta = read_checkpoint(path, "model", {})
    specs = delta.specs
    return BaseWeights(specs, [arrays[f"{s.name}.weight"] for s in specs]), delta
