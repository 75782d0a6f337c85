"""Deterministic random streams.

Every random draw in the package flows through a counter-based Philox
generator keyed by a 64-bit seed. Stream seeds are derived from a master
seed plus a string label path (sha256), so adding a new consumer never
perturbs the draws of existing ones, and the same (seed, labels) pair
yields the same stream on every platform.

Normal variates use the Box-Muller transform over Philox uniforms instead
of numpy's ziggurat sampler: the mapping from raw generator output to
samples is then fixed by this file rather than by the numpy version.
"""

from __future__ import annotations

import hashlib

import numpy as np


def seed_for(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit stream seed from a master seed and a label path.

    Labels are joined with '|' and hashed together with the master seed;
    distinct label paths give independent streams for any fixed master.
    """
    tag = "|".join(str(x) for x in labels)
    digest = hashlib.sha256(f"{master_seed}|{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int) -> np.random.Generator:
    """A Philox-backed generator for the given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed))


def substream(master_seed: int, *labels: object) -> np.random.Generator:
    """Shorthand for stream(seed_for(master_seed, *labels))."""
    return stream(seed_for(master_seed, *labels))


def permutations(seeds: list[int], sizes: list[int], count: int) -> list[np.ndarray]:
    """For each (seed, size), a (count, size) array whose rows are the
    orders `count` calls of stream(seed).permutation(size) give, in turn.
    One Philox generator draws them all, re-keyed per seed by setting its
    state to a fresh stream's, which costs far less than building one."""
    gen = stream(0)
    fresh = gen.bit_generator.state
    out = []
    for seed, size in zip(seeds, sizes):
        key = np.array([seed & (2**64 - 1), seed >> 64], dtype=np.uint64)
        gen.bit_generator.state = {**fresh, "state": {**fresh["state"], "key": key}}
        orders = np.empty((count, size), dtype=np.int64)
        for row in orders:
            row[...] = gen.permutation(size)
        out.append(orders)
    return out


def box_muller(uniforms: np.ndarray, count: int) -> np.ndarray:
    """`count` standard normals per uniform block along the last axis: the
    halves u1, u2 map to r * (cos, sin)(2 pi u2), r = sqrt(-2 ln(1 - u1)),
    cosines first; 1 - u1 stays in (0, 1] though gen.random() may give 0."""
    pairs = uniforms.shape[-1] // 2
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[..., :pairs]))
    angle = 2.0 * np.pi * uniforms[..., pairs:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[..., :count]


def normal(gen: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """Box-Muller normal variates with mean 0 and the given standard
    deviation, from one block of (count + 1) // 2 pairs of uniforms."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    count = int(np.prod(shape)) if shape else 1
    return (scale * box_muller(gen.random(2 * ((count + 1) // 2)), count)).reshape(shape)
