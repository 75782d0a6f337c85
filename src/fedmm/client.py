"""Client-side local training.

Each selected client copies the incoming global adapter delta, trains it
on its own samples with an Adam-style optimizer under a per-round cosine
schedule, and optionally adds a proximal term that pulls the composed
per-layer updates of the middle depths back toward the global ones.

The proximal strength adapts to how damaged the client's modalities are:
a client holding every modality on every sample gets 0, a client
lacking some modality on all its samples gets gamma_max, and any other
client gets gamma_max scaled by its fraction of absent (sample,
modality) slots. The depth mask switches the first and last `margin`
depths off, leaving only middle layers constrained.

A run builds its training set once (TrainSet): the partition's rows and
masks, which hold every client's shard back to back in client order, as
one write-protected Batch made by one make_batch call, beside each
client's first row, missing rate and gamma. The profiles come from one
array pass over the masks (build_train_set).
The run composes each version of the global adapter once and hands the
composed updates and effective weights to everything that reads them. A
round keeps only the masked-in composed targets (round_reg_context,
RegContext): the depth mask is one interval of depths and the groups
are depth-ordered (model.shape_groups), so each group's masked-in
layers are one slice, and each product of the term is one stacked call
per slice. model.loss_and_grad computes the cross-entropy alone;
local_train adds the term after each step's loss (reg_value_and_grad):
it composes its slices into the step's weight buffer, which backprop
has spent on weight gradients, and adds its gradient into the factor
gradients (a sum of two terms, so the order does not change a byte).

One call trains a round (local_train). Its clients train in lockstep
groups of equal shard size, a group of one included: the group's
adapters are the rows of one (C, P) matrix, each epoch is one gather of
(C, n) rows of the training set and each minibatch a slice of it, each
layer's products are stacked np.matmul calls, and Adam runs elementwise
on the whole matrix, in place through two rows of step temporaries. One
block per call, sized for the widest group, holds those rows and the
step's grouped weights, so a step allocates no (C, P) or weight-shaped
array; every group trains in its first rows. A group's first step
copies the global effective weights into its weight rows, since every
row of its adapter still equals the global one; later steps compose
their own. Each client keeps its own shuffle stream, drawn for all
epochs up front from one re-keyed generator (rng.permutations), and its
own gamma; the trained adapters come back as one (K, P) matrix. The
proximal term is exactly zero while an adapter still equals the global
one, so a client's first step skips its arithmetic.

What stays the same across a group's steps is worked out once per
group, so a step runs only arithmetic: the modalities no row of its
shards holds (from TrainSet.present), which every minibatch carries as
its Batch.absent, so a step skips those encoder stacks without a scan;
and, at its second step, the proximal term's set-up (RegContext.bind):
the masked-in slices of its parameter, gradient and weight rows, the
coefficient 2 * gamma * scale and the gamma column. A group of one step
binds nothing. The round still builds one context (make_reg_context),
and every step still makes one reg_value_and_grad call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng
from .data import DatasetManifest
from .model import (
    AdapterDelta,
    BaseWeights,
    Batch,
    Grouped,
    effective_weights,
    grouped,
    loss_and_grad,
    make_batch,
)
from .partitioner import ClientPartition

# Most clients one lockstep group trains at once (local_train). Each
# member adds its working arrays to the peak memory of training. Median
# peak RSS of `bench/run.py --workload many_clients` (2-core host, numpy
# 2.4.6) over one-at-a-time training: +0.7 % at 4, +1.5 % at 6, +2.1 % at
# 8, +4.5 % at 16. That workload's 1,500 client steps take 508 group steps
# at 4, 346 at 8 and 299 with no bound.
LOCKSTEP_WIDTH = 8

@dataclass(frozen=True)
class RegularizerConfig:
    enabled: bool = True
    gamma_max: float = 0.1
    margin: int = 2  # depths masked off at each end; 4 suits ~30-layer stacks

    def __post_init__(self) -> None:
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

    def __post_init__(self) -> None:
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
    mask = np.zeros(depth, dtype=bool)
    if 2 * margin >= depth:
        warnings.warn(
            f"margin {margin} masks out all {depth} depths; regularizer is inert",
            stacklevel=2,
        )
        return mask
    mask[margin : depth - margin] = True
    return mask


class BoundTerm(NamedTuple):
    """What reg_value_and_grad derives from its context and arrays before
    any arithmetic (_bind_term): per masked-in slice, the views (ups,
    downs, ups transposed, downs transposed, up gradients, down
    gradients, scratch or None) and the target; the coefficient 2 * gamma
    * scale, shaped to scale a slice; gamma as a column; and the delta,
    gradient and scratch it was derived for."""

    slices: tuple[tuple[np.ndarray | None, ...], ...]
    coef: np.ndarray
    gamma: np.ndarray
    arrays: tuple[np.ndarray, np.ndarray, list[np.ndarray] | None]


@dataclass(frozen=True)
class RegContext:
    """Frozen per-round inputs of the proximal term, built by
    make_reg_context: for each shape group holding masked-in layers,
    (group index, slice of its layers, their stacked composed global
    updates); `order`, which puts those layers, concatenated slice by
    slice, in layer order; the client's gamma (for a lockstep group, one
    gamma per client as a (C,) vector); and `origin`, the global flat
    vector the targets were composed from. `bound`, set by bind, holds
    the term's set-up for one lockstep group's arrays."""

    slices: tuple[tuple[int, slice, np.ndarray], ...]
    order: np.ndarray
    gamma: float | np.ndarray
    origin: np.ndarray
    bound: BoundTerm | None = field(default=None, repr=False, compare=False)

    def bind(self, delta: AdapterDelta, grad: AdapterDelta, scratch: list[np.ndarray]) -> RegContext:
        """This context with its set-up made once for the arrays every
        later call passes (local_train binds it at a group's second step);
        reg_value_and_grad then only does arithmetic and skips its origin
        test."""
        _check_gamma(self, delta)
        return replace(self, bound=_bind_term(self, delta, grad, scratch))


def make_reg_context(global_delta: AdapterDelta, composed: Grouped, margin: int, gamma: float) -> RegContext:
    """The proximal context of the layers mask_vector switches on, taking
    their targets from `composed`, the global delta's composed updates
    (model.compose_updates). Its mask is one interval of depths, so each
    depth-ordered group's masked-in layers are one slice."""
    depth = max(s.depth for s in global_delta.specs) + 1
    on = np.flatnonzero(mask_vector(depth, margin))
    lo, hi = (on[0], on[-1] + 1) if on.size else (0, 0)
    slices, layers = [], []
    for g, group in enumerate(global_delta.groups):
        span = group.span(lo, hi)
        if span.start < span.stop:
            slices.append((g, span, composed.stacks[g][span]))
            layers += group.layers[span]
    return RegContext(tuple(slices), np.argsort(layers), gamma, global_delta.flat.copy())


def round_reg_context(global_delta: AdapterDelta, composed: Grouped, margin: int, gammas: list[float]) -> RegContext | None:
    """The proximal context a round's clients share, built from the global
    delta's composed updates, or None when no client's gamma is positive.
    local_train replaces its gamma with each group's."""
    if not any(gamma > 0.0 for gamma in gammas):
        return None
    return make_reg_context(global_delta, composed, margin, max(gammas))


@dataclass(frozen=True)
class TrainSet:
    """Every client's shard as a run trains it: one write-protected Batch,
    without a client axis, holding the shards back to back in client
    order; each client's first row in it (`start`); and per client the
    fraction of absent (sample, modality) slots and the proximal strength
    that profile earns (0 with the regularizer off). An empty client,
    which no round samples, gets 0.0 for both. `present` counts each
    client's rows holding each modality, (K, M)."""

    batch: Batch
    start: np.ndarray
    missing_rate: tuple[float, ...]
    gamma: tuple[float, ...]
    present: np.ndarray

    @cached_property
    def sizes(self) -> np.ndarray:
        """Rows per client."""
        return np.diff(self.start, append=len(self.batch))


def build_train_set(manifest: DatasetManifest, partition: ClientPartition, reg_cfg: RegularizerConfig) -> TrainSet:
    """Assemble every shard in one make_batch call and profile every
    client in one pass: the present (sample, modality) slots of each
    client and modality are differences of the masks' running sums at the
    client bounds."""
    batch = make_batch(manifest, partition.rows, partition.masks).freeze()
    bounds, width = partition.bounds, partition.masks.shape[1]
    running = np.zeros((len(partition.rows) + 1, width), np.intp)
    np.cumsum(partition.masks, axis=0, out=running[1:])
    present = np.diff(running[bounds], axis=0)
    present.flags.writeable = False
    slots = np.diff(bounds) * width
    absent = slots - present.sum(axis=1)
    missing_rate = np.divide(absent, slots, out=np.zeros(len(slots)), where=slots > 0)
    gamma = np.zeros(len(slots))
    if reg_cfg.enabled:
        np.multiply(reg_cfg.gamma_max, missing_rate, out=gamma, where=absent > 0)
        # a modality absent from every sample earns the full strength
        gamma[(present == 0).any(axis=1) & (slots > 0)] = reg_cfg.gamma_max
    return TrainSet(batch, bounds[:-1], tuple(missing_rate.tolist()), tuple(gamma.tolist()), present)


def _check_gamma(ctx: RegContext, delta: AdapterDelta) -> None:
    if np.shape(ctx.gamma) != delta.flat.shape[:-1]:
        raise ValueError(f"need one gamma per client, got shape {np.shape(ctx.gamma)}")


def _bind_term(ctx: RegContext, delta: AdapterDelta, grad: AdapterDelta, scratch: list[np.ndarray] | None) -> BoundTerm:
    """The views, coefficient and gamma column reg_value_and_grad reads."""
    slices = []
    for g, span, target in ctx.slices:
        (ups, downs), (dups, ddowns) = delta.stacks[g], grad.stacks[g]
        ups, downs = ups[..., span, :, :], downs[..., span, :, :]
        diff = None if scratch is None else scratch[g][..., span, :, :]
        views = (ups, downs, ups.swapaxes(-1, -2), downs.swapaxes(-1, -2))
        slices.append((*views, dups[..., span, :, :], ddowns[..., span, :, :], diff, target))
    gamma = np.asarray(ctx.gamma)
    coef = (2.0 * gamma * delta.scale)[..., None, None, None]
    return BoundTerm(tuple(slices), coef, gamma[..., None], (delta.flat, grad.flat, scratch))


def reg_value_and_grad(
    delta: AdapterDelta,
    ctx: RegContext,
    grad: AdapterDelta | None = None,
    scratch: list[np.ndarray] | None = None,
) -> tuple[float | np.ndarray, AdapterDelta]:
    """gamma * sum over masked-in layers of ||composed - target||_F^2, with
    its exact gradient through the low-rank factors added into grad's
    masked-in slots (grad is a fresh zero buffer when none is given; other
    slots are left as they are). scratch, when given, holds weight-shaped
    group stacks (Grouped.stacks) whose contents the caller no longer
    needs; the masked-in updates are composed there instead of into new
    arrays.

    Each product runs once per shape group, on its masked-in slice
    (ctx.slices). The value still sums the layers one by one in layer
    order.

    With a client axis on delta, gamma is one value per client and so is
    the result; a client with gamma 0 adds exactly nothing, so clients
    with and without the proximal term can train in one group.

    While every row of delta still equals ctx.origin (a client's first
    step) it returns 0.0 and grad as it is: each stacked compose item is
    the same gemm as its target's, so every difference would be +0, and
    the term would add +0 to the loss and to every gradient entry. That
    could only turn a -0 entry into +0, a sign Adam's moments, which
    start at +0, never keep.

    A bound context (RegContext.bind) must get the delta, grad and
    scratch it was bound to, and skips the origin test: local_train binds
    it after a group's first step, and should no row have moved, the
    term adds the zeros above, which change no byte that Adam keeps.
    """
    term = ctx.bound
    if term is None:
        _check_gamma(ctx, delta)
        if grad is None:
            grad = replace(delta, flat=np.zeros_like(delta.flat))
        if not ctx.slices or (delta.flat == ctx.origin).all():
            return 0.0, grad
        term = _bind_term(ctx, delta, grad, scratch)
    elif grad is None or any(a is not b for a, b in zip(term.arrays, (delta.flat, grad.flat, scratch))):
        raise ValueError("a bound context takes only the arrays it was bound to")
    scale, squares = delta.scale, []
    for ups, downs, ups_t, downs_t, dups, ddowns, diff, target in term.slices:
        diff = np.matmul(ups, downs, out=diff)
        if scale != 1.0:
            diff *= scale
        diff -= target
        up_grad = np.matmul(diff, downs_t)
        up_grad *= term.coef
        dups += up_grad
        down_grad = np.matmul(ups_t, diff)
        down_grad *= term.coef
        ddowns += down_grad
        squares.append(np.multiply(diff, diff, out=diff).sum(axis=(-2, -1)))
    terms = np.concatenate(squares, axis=-1)[..., ctx.order]
    terms *= term.gamma
    # 0 + t0 + t1 + ..., left to right, as a loop over the layers sums
    return np.add.accumulate(terms, axis=-1)[..., -1], grad


def cosine_lr(step: int, total_steps: int, warmup_ratio: float, lr0: float) -> float:
    """Linear warmup to lr0 over ceil(warmup_ratio * total_steps) steps,
    then a half-cosine decay toward 0 across the remaining steps."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    warmup = math.ceil(warmup_ratio * total_steps)
    if step < warmup:
        return lr0 * (step + 1) / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * progress))


def lockstep_groups(sizes: list[int]) -> list[list[int]]:
    """Positions of equal shard size grouped together, at most
    LOCKSTEP_WIDTH per group, groups in order of first appearance and
    positions in order within a group."""
    by_size: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        by_size.setdefault(n, []).append(i)
    return [
        members[i : i + LOCKSTEP_WIDTH]
        for members in by_size.values()
        for i in range(0, len(members), LOCKSTEP_WIDTH)
    ]


def local_train(
    base: BaseWeights,
    global_delta: AdapterDelta,
    data: TrainSet,
    clients: list[int],
    train_cfg: LocalTrainConfig,
    seeds: list[int],
    reg_ctx: RegContext | None = None,
    global_weights: Grouped | None = None,
) -> tuple[AdapterDelta, list[list[float]]]:
    """Train one copy of the global delta per client of `data` named in
    `clients`, each on its own shard with its own shuffle stream (`seeds`);
    each epoch is a gather of rows of data.batch. reg_ctx, when given,
    holds the round's masked-in proximal targets, and data each client's
    gamma; a group whose gammas are all 0 runs no proximal term.
    global_weights, when given, must hold the global delta's effective
    weights (model.effective_weights); None composes them here, once.

    Clients of equal shard size train in lockstep groups (lockstep_groups),
    a group of one included, each as one (C, P) parameter matrix on
    minibatches with a client axis. Returns the trained deltas as one
    AdapterDelta with a (K, P) client axis and each client's per-epoch mean
    training loss, both in the order of `clients`. Neither the base
    weights, the supplied global delta and weights nor the training set
    are mutated; epochs=0 returns copies of the global delta and empty
    traces.
    """
    if not clients or len(seeds) != len(clients):
        raise ValueError("need one seed per client")
    sizes = data.sizes[clients].tolist()
    if 0 in sizes:
        raise ValueError("client has no samples")
    if global_weights is None:
        global_weights = effective_weights(base, global_delta)
    groups = lockstep_groups(sizes)
    # One block per call, sized for the widest group, holds every array a
    # step writes, Adam's rows and the grouped weights; a group trains in
    # its first rows, through views built once per width. A block per
    # group would be trimmed by glibc when freed and faulted back in by
    # the next group.
    cap = max(len(group) for group in groups)
    size, weight_size = global_delta.flat.size, base.flat.size
    block = np.empty(cap * (6 * size + weight_size))
    arrays = block[: 6 * cap * size].reshape(6, cap, size)
    weight_rows = block[6 * cap * size :].reshape(cap, weight_size)
    views: dict[int, tuple[AdapterDelta, AdapterDelta, Grouped]] = {}
    trained = np.empty((len(clients), size))
    traces: list[list[float]] = [[] for _ in clients]
    shuffles = rng.permutations(seeds, sizes, train_cfg.epochs)
    b1, b2 = train_cfg.beta1, train_cfg.beta2

    for group in groups:
        width, n = len(group), sizes[group[0]]
        members = [clients[i] for i in group]
        params, grad_flat, first, second, t1, t2 = arrays[:, :width]
        if width not in views:
            views[width] = (
                replace(global_delta, flat=params),
                replace(global_delta, flat=grad_flat),
                grouped(base.groups, weight_rows[:width]),
            )
        delta, grad, weights = views[width]
        params[...] = global_delta.flat
        first[...] = 0.0
        second[...] = 0.0
        ctx = None
        if reg_ctx is not None and any(data.gamma[k] for k in members):
            ctx = replace(reg_ctx, gamma=np.array([data.gamma[k] for k in members]))
        # the modalities no row of the group's shards holds
        absent = tuple((~data.present[members].any(axis=0)).tolist())
        # (epochs, C, n): each client's shuffled positions in data.batch
        orders = np.stack([shuffles[i] for i in group], axis=1)
        orders += data.start[members][:, None]
        total_steps = train_cfg.epochs * math.ceil(n / train_cfg.batch_size)
        step = 0
        for order in orders:
            loss_sum = 0.0
            for minibatch in data.batch.take(order, absent).split(train_cfg.batch_size):
                if step:
                    effective_weights(base, delta, out=weights)
                    if step == 1 and ctx is not None:
                        ctx = ctx.bind(delta, grad, weights.stacks)
                else:  # every row still holds the global adapter
                    weights.vec[...] = global_weights.vec
                loss, _ = loss_and_grad(base, delta, minibatch, grad, weights)
                if ctx is not None:
                    loss = loss + reg_value_and_grad(delta, ctx, grad, weights.stacks)[0]
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
            for i, value in zip(group, (loss_sum / n).tolist()):
                traces[i].append(value)
        trained[group] = params
    return replace(global_delta, flat=trained), traces
