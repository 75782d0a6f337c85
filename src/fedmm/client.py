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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .data import DatasetManifest
from .model import AdapterDelta, BaseWeights, compose_delta, loss_and_grad, make_batch
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


@dataclass
class RegContext:
    """Frozen per-round inputs of the proximal term: composed global
    per-layer updates, the depth mask, and the client's gamma."""

    targets: list[np.ndarray]
    mask: np.ndarray
    gamma: float

    def value_and_grad(self, delta: AdapterDelta) -> tuple[float, AdapterDelta]:
        return reg_value_and_grad(delta, self)


def make_reg_context(global_delta: AdapterDelta, margin: int, gamma: float) -> RegContext:
    depth = max(s.depth for s in global_delta.specs) + 1
    targets = [compose_delta(global_delta, i) for i in range(len(global_delta.specs))]
    return RegContext(targets=targets, mask=mask_vector(depth, margin), gamma=gamma)


def reg_value_and_grad(delta: AdapterDelta, ctx: RegContext) -> tuple[float, AdapterDelta]:
    """gamma * sum over unmasked layers of ||composed - target||_F^2, with
    its exact gradient through the low-rank factors."""
    depth = max(s.depth for s in delta.specs) + 1
    if ctx.mask.shape != (depth,):
        raise ValueError(f"mask length {ctx.mask.shape[0]} does not match depth {depth}")
    if len(ctx.targets) != len(delta.specs):
        raise ValueError("target count does not match layer count")
    value = 0.0
    grad = replace(delta, flat=np.zeros_like(delta.flat))
    scale = delta.scale
    for i, spec in enumerate(delta.specs):
        if not ctx.mask[spec.depth]:
            continue
        diff = compose_delta(delta, i) - ctx.targets[i]
        value += ctx.gamma * float((diff * diff).sum())
        grad.up[i][...] = 2.0 * ctx.gamma * scale * (diff @ delta.down[i].T)
        grad.down[i][...] = 2.0 * ctx.gamma * scale * (delta.up[i].T @ diff)
    return value, grad


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
    manifest: DatasetManifest,
    slot: ClientSlot,
    train_cfg: LocalTrainConfig,
    reg_cfg: RegularizerConfig,
    seed: int,
) -> tuple[AdapterDelta, list[float]]:
    """Train a copy of the global delta on one client's samples.

    Returns the trained delta and the per-epoch mean training loss.
    Neither the base weights nor the supplied global delta are mutated;
    epochs=0 returns an untouched copy and an empty trace.
    """
    train_cfg.validate()
    reg_cfg.validate()
    if len(slot) == 0:
        raise ValueError("client has no samples")
    delta = replace(global_delta, flat=global_delta.flat.copy())
    if train_cfg.epochs == 0:
        return delta, []

    modality_count = len(manifest.modalities)
    gamma = 0.0
    if reg_cfg.enabled:
        kind = classify_client(slot)
        gamma = gamma_for_client(reg_cfg.gamma_max, kind, client_missing_rate(slot, modality_count))
    ctx = make_reg_context(global_delta, reg_cfg.margin, gamma) if gamma > 0.0 else None

    n = len(slot)
    batches_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.epochs * batches_per_epoch
    gen = rng.stream(seed)

    params = delta.flat
    first = np.zeros_like(params)
    second = np.zeros_like(params)
    step = 0
    trace: list[float] = []
    for _ in range(train_cfg.epochs):
        order = gen.permutation(n)
        loss_sum = 0.0
        for b in range(batches_per_epoch):
            pick = order[b * train_cfg.batch_size : (b + 1) * train_cfg.batch_size]
            batch = make_batch(
                manifest,
                [slot.sample_ids[i] for i in pick],
                [slot.masks[i] for i in pick],
            )
            loss, grad = loss_and_grad(base, delta, batch, ctx)
            loss_sum += loss * len(batch)
            g = grad.flat
            step += 1
            first = train_cfg.beta1 * first + (1.0 - train_cfg.beta1) * g
            second = train_cfg.beta2 * second + (1.0 - train_cfg.beta2) * g * g
            first_hat = first / (1.0 - train_cfg.beta1**step)
            second_hat = second / (1.0 - train_cfg.beta2**step)
            lr = cosine_lr(step - 1, total_steps, train_cfg.warmup_ratio, train_cfg.lr)
            params -= lr * first_hat / (np.sqrt(second_hat) + train_cfg.eps)
        trace.append(loss_sum / n)
    return delta, trace
