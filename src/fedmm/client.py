"""Client-side local training.

Each selected client copies the incoming global adapter delta, trains it
on its own samples with an Adam-style optimizer under a per-round cosine
schedule, and optionally adds a proximal term that pulls the composed
per-layer updates of the middle depths back toward the global ones.

The proximal strength adapts to how damaged the client's modalities are:
fully aligned clients get 0, single-modality clients get gamma_max, and
partially missing clients get gamma_max scaled by their fraction of
absent (sample, modality) slots. The depth mask switches the first and
last `margin` depths off, leaving only middle layers constrained.

A run classifies each client once, when it is first sampled, and keeps
its shard as one write-protected Batch (ClientData). A round composes the
proximal targets once (round_reg_context) for all of its clients, as
shape-group stacks, and plans where the term acts: the depth mask is one
interval of depths and the groups are depth-ordered (model.shape_groups),
so each group's masked-in layers are one slice, and each product of the
term is one stacked call per slice (masked_slices).

Clients with equal shard sizes train in lockstep (local_train): the
group's adapters are the rows of one (C, P) matrix, each layer's
products are stacked np.matmul calls, and Adam runs elementwise on the
whole matrix, in place through two rows of step temporaries. One block
per call holds those rows and the step's grouped weights, so a step
allocates no (C, P) or weight-shaped array. Each client keeps its own
shuffle stream and gamma. A group of one trains on a bare vector, with
no client axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .data import DatasetManifest
from .model import (
    AdapterDelta,
    BaseWeights,
    Batch,
    ShapeGroup,
    StepBuffers,
    compose_updates,
    loss_and_grad,
    make_batch,
)
from .partitioner import CLIENT_KINDS, ClientSlot, classify_client, client_missing_rate


@dataclass(frozen=True)
class RegularizerConfig:
    enabled: bool = True
    gamma_max: float = 0.1
    margin: int = 2  # depths masked off at each end; 4 suits ~30-layer stacks

    def validate(self) -> None:
        if self.gamma_max < 0:
            raise ValueError(f"gamma_max must be >= 0, got {self.gamma_max}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")


@dataclass(frozen=True)
class LocalTrainConfig:
    epochs: int = 1
    batch_size: int = 16
    lr: float = 1e-2  # 2e-5 suits full-scale backbones
    warmup_ratio: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError(f"warmup_ratio must lie in [0, 1], got {self.warmup_ratio}")


def mask_vector(depth: int, margin: int) -> np.ndarray:
    """Boolean depth mask: first and last `margin` depths off, middle on.

    When 2 * margin >= depth nothing remains; that degenerate all-false
    mask is returned with a warning since it silences the regularizer.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    mask = np.zeros(depth, dtype=bool)
    if 2 * margin >= depth:
        warnings.warn(
            f"margin {margin} masks out all {depth} depths; regularizer is inert",
            stacklevel=2,
        )
        return mask
    mask[margin : depth - margin] = True
    return mask


def gamma_for_client(gamma_max: float, kind: str, missing_rate: float) -> float:
    """0 for aligned, gamma_max for single-modality, linear in the
    missing rate between."""
    if kind not in CLIENT_KINDS:
        raise ValueError(f"kind must be one of {CLIENT_KINDS}, got {kind!r}")
    if gamma_max < 0:
        raise ValueError(f"gamma_max must be >= 0, got {gamma_max}")
    if not 0.0 <= missing_rate <= 1.0:
        raise ValueError(f"missing_rate must lie in [0, 1], got {missing_rate}")
    if kind == "aligned":
        return 0.0
    if kind == "single_modality":
        return gamma_max
    return gamma_max * missing_rate


@dataclass(frozen=True)
class MaskedSlices:
    """Where the proximal term acts: for each shape group holding
    masked-in layers, (group index, slice of its layers, their stacked
    targets), and `order`, which puts those layers, concatenated slice by
    slice, in layer order."""

    slices: tuple[tuple[int, slice, np.ndarray], ...]
    order: np.ndarray


def masked_slices(
    groups: tuple[ShapeGroup, ...],
    mask: np.ndarray,
    targets: list[np.ndarray],
    stacked: list[np.ndarray] | None = None,
) -> MaskedSlices:
    """The slices of a depth mask, which must switch on one interval of
    depths, so a depth-ordered group's masked-in layers are one slice.
    Targets are sliced from their group stacks when given, else stacked."""
    on = np.flatnonzero(mask)
    if on.size and on[-1] - on[0] + 1 != on.size:
        raise ValueError(f"mask must switch on one interval of depths, got {mask.tolist()}")
    slices, layers = [], []
    for g, group in enumerate(groups):
        span = group.span(on[0], on[-1] + 1) if on.size else slice(0, 0)
        if span.start == span.stop:
            continue
        target = np.stack([targets[i] for i in group.layers[span]]) if stacked is None else stacked[g][span]
        slices.append((g, span, target))
        layers += group.layers[span]
    return MaskedSlices(tuple(slices), np.argsort(layers))


@dataclass
class RegContext:
    """Frozen per-round inputs of the proximal term: composed global
    per-layer updates, the depth mask, and the client's gamma (for a
    lockstep group, one gamma per client as a (C,) vector).
    make_reg_context also plans where the term acts (`plan`, the
    masked_slices of targets and mask); a context without one plans on
    every call."""

    targets: list[np.ndarray]
    mask: np.ndarray
    gamma: float | np.ndarray
    plan: MaskedSlices | None = None

    def value_and_grad(
        self,
        delta: AdapterDelta,
        composed: list[np.ndarray] | None = None,
        grad: AdapterDelta | None = None,
    ) -> tuple[float | np.ndarray, AdapterDelta]:
        return reg_value_and_grad(delta, self, composed, grad)


def make_reg_context(global_delta: AdapterDelta, margin: int, gamma: float) -> RegContext:
    depth = max(s.depth for s in global_delta.specs) + 1
    mask = mask_vector(depth, margin)
    composed = compose_updates(global_delta)
    plan = masked_slices(global_delta.groups, mask, composed.layers, composed.stacks)
    return RegContext(targets=composed.layers, mask=mask, gamma=gamma, plan=plan)


def round_reg_context(global_delta: AdapterDelta, margin: int, gammas: list[float]) -> RegContext | None:
    """The proximal context a round's clients share: the composed global
    targets and the depth mask, built once, or None when no client's
    gamma is positive. local_train replaces its gamma with each group's."""
    if not any(gamma > 0.0 for gamma in gammas):
        return None
    return make_reg_context(global_delta, margin, max(gammas))


@dataclass(frozen=True)
class ClientData:
    """One client as a run sees it: the whole shard in slot order as one
    write-protected Batch, the fraction of absent (sample, modality)
    slots, and the proximal strength that profile earns (0 with the
    regularizer off)."""

    batch: Batch
    missing_rate: float
    gamma: float


def client_data(manifest: DatasetManifest, slot: ClientSlot, reg_cfg: RegularizerConfig) -> ClientData:
    """Classify a client once and assemble its shard."""
    reg_cfg.validate()
    missing_rate = client_missing_rate(slot, len(manifest.modalities))
    gamma = 0.0
    if reg_cfg.enabled:
        gamma = gamma_for_client(reg_cfg.gamma_max, classify_client(slot), missing_rate)
    batch = make_batch(manifest, slot.sample_ids, slot.masks).freeze()
    return ClientData(batch=batch, missing_rate=missing_rate, gamma=gamma)


def reg_value_and_grad(
    delta: AdapterDelta,
    ctx: RegContext,
    composed: list[np.ndarray] | None = None,
    grad: AdapterDelta | None = None,
) -> tuple[float | np.ndarray, AdapterDelta]:
    """gamma * sum over unmasked layers of ||composed - target||_F^2, with
    its exact gradient through the low-rank factors written into grad's
    masked-in slots (grad is a fresh zero buffer when none is given; other
    slots are left as they are). composed, when given, holds the group
    stacks of every layer's scale * up @ down (compose_updates); its
    masked-in slots serve as scratch and are recomposed, bit for bit,
    before the call returns, so the term needs no memory of its own.

    Each product runs once per shape group, on its masked-in slice
    (ctx.plan). The value still sums the layers one by one in layer
    order.

    With a client axis on delta, gamma is one value per client and so is
    the result; a client with gamma 0 adds exactly nothing, so clients
    with and without the proximal term can train in one group.
    """
    depth = max(s.depth for s in delta.specs) + 1
    if ctx.mask.shape != (depth,):
        raise ValueError(f"mask length {ctx.mask.shape[0]} does not match depth {depth}")
    if len(ctx.targets) != len(delta.specs):
        raise ValueError("target count does not match layer count")
    if np.shape(ctx.gamma) != delta.flat.shape[:-1]:
        raise ValueError(f"need one gamma per client, got shape {np.shape(ctx.gamma)}")
    plan = ctx.plan if ctx.plan is not None else masked_slices(delta.groups, ctx.mask, ctx.targets)
    if grad is None:
        grad = replace(delta, flat=np.zeros_like(delta.flat))
    if not plan.slices:
        return 0.0, grad
    borrowed = composed is not None
    if not borrowed:
        composed = compose_updates(delta).stacks
    gamma = np.asarray(ctx.gamma)
    coef = (2.0 * gamma * delta.scale)[..., None, None, None]
    squares = []
    for g, span, target in plan.slices:
        update = composed[g][..., span, :, :]
        diff = np.subtract(update, target, out=update)
        (ups, downs), (dups, ddowns) = delta.stacks[g], grad.stacks[g]
        up_grad = np.matmul(diff, downs[..., span, :, :].swapaxes(-1, -2), out=dups[..., span, :, :])
        up_grad *= coef
        down_grad = np.matmul(ups[..., span, :, :].swapaxes(-1, -2), diff, out=ddowns[..., span, :, :])
        down_grad *= coef
        squares.append(np.multiply(diff, diff, out=diff).sum(axis=(-2, -1)))
        if borrowed:
            np.matmul(ups[..., span, :, :], downs[..., span, :, :], out=update)
            update *= delta.scale
    terms = np.concatenate(squares, axis=-1)[..., plan.order]
    terms *= gamma[..., None]
    # 0 + t0 + t1 + ..., left to right, as a loop over the layers sums
    return np.add.accumulate(terms, axis=-1)[..., -1], grad


def cosine_lr(step: int, total_steps: int, warmup_ratio: float, lr0: float) -> float:
    """Linear warmup to lr0 over ceil(warmup_ratio * total_steps) steps,
    then a half-cosine decay toward 0 across the remaining steps."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    if lr0 <= 0:
        raise ValueError(f"lr0 must be > 0, got {lr0}")
    if not 0.0 <= warmup_ratio <= 1.0:
        raise ValueError(f"warmup_ratio must lie in [0, 1], got {warmup_ratio}")
    warmup = math.ceil(warmup_ratio * total_steps)
    if step < warmup:
        return lr0 * (step + 1) / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * progress))


def local_train(
    base: BaseWeights,
    global_delta: AdapterDelta,
    clients: list[ClientData],
    train_cfg: LocalTrainConfig,
    seeds: list[int],
    reg_ctx: RegContext | None = None,
) -> list[tuple[AdapterDelta, list[float]]]:
    """Train one copy of the global delta per client of a lockstep group,
    each on its own shard (`clients`, all of one shard size) with its own
    shuffle stream (`seeds`); each minibatch is a row-take of the shard.
    reg_ctx, when given, holds the round's proximal targets and mask, and
    each client's ClientData its gamma; a group whose gammas are all 0
    runs no proximal term.

    The group trains as one (C, P) parameter matrix, a group of one as a
    bare vector. Returns each client's trained delta and per-epoch mean
    training loss. Neither the base weights, the supplied global delta
    nor the shards are mutated; epochs=0 returns untouched copies and
    empty traces.
    """
    train_cfg.validate()
    width = len(clients)
    if width < 1 or len(seeds) != width:
        raise ValueError("need one seed per client")
    n = len(clients[0].batch)
    if any(len(c.batch) != n for c in clients):
        raise ValueError(f"lockstep shards must have one size, got {[len(c.batch) for c in clients]}")
    if n == 0:
        raise ValueError("client has no samples")
    # One block per call holds every array a step writes, Adam's rows and
    # the grouped weights (StepBuffers): several blocks per call, freed
    # together, get trimmed by glibc and faulted back in on the next call.
    size, weight_size = global_delta.flat.size, base.flat.size
    block = np.empty(width * (6 * size + weight_size))
    arrays = block[: 6 * width * size].reshape(6, width, size)
    arrays[2:4] = 0.0
    params, grad_flat, first, second, t1, t2 = arrays[:, 0] if width == 1 else arrays
    params[...] = global_delta.flat
    delta = replace(global_delta, flat=params)
    grad = replace(global_delta, flat=grad_flat)
    # t1 is free while loss_and_grad runs, so it holds the proximal gradient
    buffers = StepBuffers(base, delta, block[6 * width * size :].reshape(*params.shape[:-1], weight_size), t1)
    ctx = None
    if reg_ctx is not None and any(c.gamma for c in clients):
        ctx = replace(reg_ctx, gamma=clients[0].gamma if width == 1 else np.array([c.gamma for c in clients]))
    shard = clients[0].batch if width == 1 else _stack_batches([c.batch for c in clients])
    traces: list[list[float]] = [[] for _ in range(width)]
    batches_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.epochs * batches_per_epoch
    gens = [rng.stream(seed) for seed in seeds]
    b1, b2 = train_cfg.beta1, train_cfg.beta2

    step = 0
    for _ in range(train_cfg.epochs):
        order = gens[0].permutation(n) if width == 1 else np.stack([gen.permutation(n) for gen in gens])
        loss_sum = 0.0
        for b in range(batches_per_epoch):
            minibatch = shard.take(order[..., b * train_cfg.batch_size : (b + 1) * train_cfg.batch_size])
            loss, _ = loss_and_grad(base, delta, minibatch, ctx, grad, buffers)
            loss_sum += loss * len(minibatch)
            step += 1
            lr = cosine_lr(step - 1, total_steps, train_cfg.warmup_ratio, train_cfg.lr)
            # params -= lr * m_hat / (sqrt(v_hat) + eps), in place in that order
            first *= b1
            np.multiply(grad_flat, 1.0 - b1, out=t1)
            first += t1
            second *= b2
            np.multiply(grad_flat, 1.0 - b2, out=t1)
            t1 *= grad_flat
            second += t1
            np.divide(first, 1.0 - b1**step, out=t1)
            np.divide(second, 1.0 - b2**step, out=t2)
            t1 *= lr
            np.sqrt(t2, out=t2)
            t2 += train_cfg.eps
            t1 /= t2
            params -= t1
        for trace, value in zip(traces, np.reshape(loss_sum / n, width).tolist()):
            trace.append(value)
    return [(replace(global_delta, flat=row.copy()), trace) for row, trace in zip(params.reshape(width, -1), traces)]


def _stack_batches(batches: list[Batch]) -> Batch:
    """Equal-size shards as one batch with a leading client axis."""
    return Batch(
        features=[np.stack(arrays) for arrays in zip(*(b.features for b in batches))],
        presence=[np.stack(arrays) for arrays in zip(*(b.presence for b in batches))],
        labels=np.stack([b.labels for b in batches]),
    )
