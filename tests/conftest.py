from dataclasses import replace

import numpy as np
import pytest

from fedmm.client import client_data, local_train, reg_contexts
from fedmm.data import DatasetManifest, ModalityDescriptor, Sample, SynthConfig, synth_generate
from fedmm.model import ModelConfig, init_model
from fedmm.partitioner import ClientPartition, ClientSlot


def round_robin_partition(manifest, clients):
    """Aligned partition with every client nonempty (samples dealt in turn)."""
    slots = [ClientSlot() for _ in range(clients)]
    for i, sample in enumerate(manifest.samples):
        slots[i % clients].sample_ids.append(sample.id)
        slots[i % clients].masks.append(sample.presence(manifest.modalities))
    return ClientPartition(clients=slots)


def train_client(base, delta, manifest, slot, cfg, reg_cfg, seed):
    """local_train on one client the way run_rounds drives it."""
    client = client_data(manifest, slot, reg_cfg)
    [ctx] = reg_contexts(delta, reg_cfg.margin, [client.gamma])
    return local_train(base, delta, client.batch, cfg, seed, ctx)


def tiny_manifest(class_count=3, dims=(4, 3), per_class=10, split="train", seed=0):
    """Small fully aligned manifest with deterministic contents."""
    cfg = SynthConfig(
        class_count=class_count,
        modalities=("image", "text")[: len(dims)],
        dims=dims,
        samples_per_class=per_class,
        centroid_scale=2.0,
        noise_scale=0.5,
        seed=seed,
    )
    return synth_generate(cfg, split=split)


@pytest.fixture
def manifest():
    return tiny_manifest()


@pytest.fixture
def tiny_model():
    cfg = ModelConfig(
        modality_dims=(4, 3),
        hidden=6,
        encoder_depth=2,
        trunk_depth=2,
        class_count=3,
        rank=2,
        adapter_alpha=2.0,
        seed=7,
    )
    base, delta = init_model(cfg)
    return cfg, base, delta


def randomize_delta(delta, seed=0, scale=0.1):
    """Fill both factors with nonzero values so gradients are generic."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    out = replace(delta, flat=delta.flat.copy())
    for i in range(len(out.up)):
        out.up[i][...] = gen.normal(0.0, scale, out.up[i].shape)
        out.down[i][...] = gen.normal(0.0, scale, out.down[i].shape)
    return out


def manual_manifest():
    """Two modalities, some samples missing one, for mask-sensitive tests."""
    mods = (ModalityDescriptor("image", 2), ModalityDescriptor("text", 2))
    samples = [
        Sample("a", 0, {"image": np.array([1.0, 0.0]), "text": np.array([0.5, 0.5])}),
        Sample("b", 1, {"image": np.array([0.0, 1.0])}),
        Sample("c", 0, {"text": np.array([1.0, 1.0])}),
        Sample("d", 1, {"image": np.array([2.0, 0.5]), "text": np.array([0.1, 0.9])}),
    ]
    return DatasetManifest(modalities=mods, class_count=2, split="train", samples=samples)
