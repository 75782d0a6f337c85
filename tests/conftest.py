from dataclasses import replace

import numpy as np
import pytest

from fedmm import cli, client, metrics, model, server
from fedmm.client import build_train_set, local_train, make_reg_context, round_reg_context
from fedmm.config import ExperimentConfig
from fedmm.data import DatasetManifest, ModalityDescriptor, Sample, SynthConfig, synth_generate
from fedmm.model import ModelConfig, compose_updates, init_model
from fedmm.partitioner import ClientPartition


def partition_of(shards):
    """The partition whose clients hold `shards`, (rows, masks) pairs, in
    order."""
    rows = np.concatenate([np.empty(0, np.intp), *(rows for rows, _ in shards)])
    masks = np.concatenate([masks for _, masks in shards])
    return ClientPartition(rows, masks, np.cumsum([0, *(len(rows) for rows, _ in shards)]))


def shards(partition):
    """Each client's (rows, masks), in client order."""
    bounds = partition.bounds.tolist()
    return [(partition.rows[a:b], partition.masks[a:b]) for a, b in zip(bounds, bounds[1:])]


def round_robin_partition(manifest, clients):
    """Aligned partition with every client nonempty (rows dealt in turn)."""
    rows = [np.arange(k, len(manifest), clients) for k in range(clients)]
    return partition_of([(r, manifest.presence[r]) for r in rows])


def shard_of(manifest, ids, masks=None):
    """The shard of the samples `ids`, in order, under `masks` (one tuple
    of flags per id; their manifest presence when None)."""
    rows = np.array([manifest.index_of(sid) for sid in ids], dtype=np.intp)
    return rows, manifest.presence[rows] if masks is None else np.array(masks, dtype=bool).reshape(rows.size, -1)


def empty_shard(modality_count=2):
    """The shard of a client with no samples."""
    return np.empty(0, np.intp), np.empty((0, modality_count), bool)


def train_client(base, delta, manifest, shard, cfg, reg_cfg, seed):
    """local_train on one client's shard, a lockstep group of one, the way
    run_rounds drives it; returns its trained delta and trace."""
    data = build_train_set(manifest, partition_of([shard]), reg_cfg)
    ctx = round_reg_context(delta, compose_updates(delta), reg_cfg.margin, list(data.gamma))
    trained, [trace] = local_train(base, delta, data, [0], cfg, [seed], ctx)
    return replace(trained, flat=trained.flat[0]), trace


def reg_context(target, margin, gamma):
    """make_reg_context on target's own composed updates."""
    return make_reg_context(target, compose_updates(target), margin, gamma)


def count_composes(monkeypatch):
    """The leading shape of every delta compose_updates is called on from
    here on, wherever fedmm calls it: () for the global adapter, (C,) for
    a lockstep group."""
    shapes = []
    real = model.compose_updates

    def counted(delta, out=None):
        shapes.append(delta.flat.shape[:-1])
        return real(delta, out)

    for module in (model, client, server, metrics):
        if hasattr(module, "compose_updates"):
            monkeypatch.setattr(module, "compose_updates", counted)
    return shapes


def run_config(*overrides):
    """run_rounds arguments for a config of `--set` overrides, built by
    the set-up `fedmm train` runs."""
    cfg = ExperimentConfig.from_sources(None, list(overrides))
    train, test, partition, model_cfg = cli._setup(cfg)
    return cfg.fl_config(), model_cfg, partition, train, test


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


def manual_records():
    """manual_manifest's modalities and records, for tests that build a
    manifest from edited records."""
    mods = (ModalityDescriptor("image", 2), ModalityDescriptor("text", 2))
    samples = [
        Sample("a", 0, {"image": np.array([1.0, 0.0]), "text": np.array([0.5, 0.5])}),
        Sample("b", 1, {"image": np.array([0.0, 1.0])}),
        Sample("c", 0, {"text": np.array([1.0, 1.0])}),
        Sample("d", 1, {"image": np.array([2.0, 0.5]), "text": np.array([0.1, 0.9])}),
    ]
    return mods, samples


def manual_manifest(samples=None):
    """Two modalities, some samples missing one, for mask-sensitive tests;
    samples, when given, replace manual_records' records."""
    mods, records = manual_records()
    return DatasetManifest.from_records(mods, 2, "train", records if samples is None else samples)
