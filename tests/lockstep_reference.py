"""Frozen one-client training, the oracle for lockstep training.

This is the per-client local_train and loss_and_grad (with the proximal
term) as they stood before clients trained in lockstep groups: every
client alone, 2-D arrays, a fresh gradient per step. Lockstep training
must reproduce its bytes exactly, so do not edit it along with fedmm.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from fedmm import rng
from fedmm.model import AdapterDelta, Batch


def cosine_lr(step: int, total_steps: int, warmup_ratio: float, lr0: float) -> float:
    warmup = math.ceil(warmup_ratio * total_steps)
    if step < warmup:
        return lr0 * (step + 1) / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * progress))


def compose_delta(delta: AdapterDelta, layer: int) -> np.ndarray:
    return delta.scale * (delta.up[layer] @ delta.down[layer])


def encoder_depth(specs, modality_count: int) -> int:
    if modality_count < 2:
        return 0
    return (len(specs) - len({s.depth for s in specs})) // (modality_count - 1)


def run_forward(base, weights, batch: Batch):
    specs = base.specs
    modality_count = len(batch.features)
    per_mod = encoder_depth(specs, modality_count)
    inputs, outputs = [], []

    def tanh_layer(layer, u):
        h = u @ weights[layer].T
        h += base.biases[layer]
        np.tanh(h, out=h)
        inputs.append(u)
        outputs.append(h)
        return h

    encoded = []
    for m in range(modality_count):
        u = np.concatenate([batch.features[m], batch.presence[m][:, None]], axis=1)
        for layer in range(m * per_mod, (m + 1) * per_mod):
            u = tanh_layer(layer, u)
        encoded.append(u)
    u = np.concatenate(encoded, axis=1)
    head = len(specs) - 1
    for layer in range(modality_count * per_mod, head):
        u = tanh_layer(layer, u)
    logits = u @ weights[head].T
    logits += base.biases[head]
    inputs.append(u)
    outputs.append(None)
    return logits, inputs, outputs


def softmax_xent(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(picked)))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def reg_value_and_grad(delta: AdapterDelta, targets, mask, gamma: float):
    value = 0.0
    grad = replace(delta, flat=np.zeros_like(delta.flat))
    scale = delta.scale
    for i, spec in enumerate(delta.specs):
        if not mask[spec.depth]:
            continue
        diff = compose_delta(delta, i) - targets[i]
        value += gamma * float((diff * diff).sum())
        grad.up[i][...] = 2.0 * gamma * scale * (diff @ delta.down[i].T)
        grad.down[i][...] = 2.0 * gamma * scale * (delta.up[i].T @ diff)
    return value, grad


def loss_and_grad(base, delta: AdapterDelta, batch: Batch, reg_ctx=None):
    weights = [base.weights[i] + compose_delta(delta, i) for i in range(len(base.specs))]
    logits, inputs, outputs = run_forward(base, weights, batch)
    loss, dlogits = softmax_xent(logits, batch.labels)
    grad = replace(delta, flat=np.zeros_like(delta.flat))
    scale = delta.scale

    def accumulate(layer, dz):
        dw = dz.T @ inputs[layer]
        grad.up[layer][...] += scale * (dw @ delta.down[layer].T)
        grad.down[layer][...] += scale * (delta.up[layer].T @ dw)

    def backprop(layers, d):
        for layer in reversed(layers):
            h = outputs[layer]
            dz = d * (1.0 - h * h)
            accumulate(layer, dz)
            d = dz @ weights[layer]
        return d

    specs = base.specs
    modality_count = len(batch.features)
    per_mod = encoder_depth(specs, modality_count)
    head = len(specs) - 1
    accumulate(head, dlogits)
    dstream = backprop(range(modality_count * per_mod, head), dlogits @ weights[head])
    if per_mod > 0:
        offset = 0
        for m in range(modality_count):
            stack = range(m * per_mod, (m + 1) * per_mod)
            width = specs[stack[-1]].fan_out
            backprop(stack, dstream[:, offset : offset + width])
            offset += width

    if reg_ctx is not None:
        reg_value, reg_grad = reg_value_and_grad(delta, reg_ctx.targets, reg_ctx.mask, reg_ctx.gamma)
        loss += reg_value
        grad.flat[...] += reg_grad.flat
    return loss, grad


def local_train(base, global_delta: AdapterDelta, batch: Batch, train_cfg, seed: int, reg_ctx=None):
    """One client alone: (trained delta, per-epoch mean loss)."""
    n = len(batch)
    delta = replace(global_delta, flat=global_delta.flat.copy())
    if train_cfg.epochs == 0:
        return delta, []
    batches_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.epochs * batches_per_epoch
    gen = rng.stream(seed)
    b1, b2 = train_cfg.beta1, train_cfg.beta2
    params = delta.flat
    first = np.zeros_like(params)
    second = np.zeros_like(params)
    step = 0
    trace = []
    for _ in range(train_cfg.epochs):
        order = gen.permutation(n)
        loss_sum = 0.0
        for b in range(batches_per_epoch):
            rows = order[b * train_cfg.batch_size : (b + 1) * train_cfg.batch_size]
            minibatch = Batch(
                features=[f[rows] for f in batch.features],
                presence=[p[rows] for p in batch.presence],
                labels=batch.labels[rows],
            )
            loss, grad = loss_and_grad(base, delta, minibatch, reg_ctx)
            loss_sum += loss * len(minibatch)
            g = grad.flat
            step += 1
            first *= b1
            first += (1.0 - b1) * g
            second *= b2
            second += ((1.0 - b2) * g) * g
            first_hat = first / (1.0 - b1**step)
            second_hat = second / (1.0 - b2**step)
            lr = cosine_lr(step - 1, total_steps, train_cfg.warmup_ratio, train_cfg.lr)
            params -= lr * first_hat / (np.sqrt(second_hat) + train_cfg.eps)
        trace.append(loss_sum / n)
    return delta, trace
