import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import round_robin_partition, tiny_manifest
from fedmm.partitioner import (
    ClientPartition,
    ClientSlot,
    ScenarioSpec,
    apply_cross,
    apply_hybrid,
    apply_missing,
    build_scenario,
    classify_client,
    client_missing_rate,
    dirichlet_partition,
    largest_remainder,
    save_partition,
)


def label_distribution(manifest, slot, class_count):
    counts = np.zeros(class_count)
    for sid in slot.sample_ids:
        counts[manifest.by_id(sid).label] += 1
    return counts / counts.sum() if counts.sum() else counts


def mean_tv(manifest, partition):
    class_count = manifest.class_count
    global_counts = np.zeros(class_count)
    for s in manifest.samples:
        global_counts[s.label] += 1
    global_dist = global_counts / global_counts.sum()
    tvs = []
    for slot in partition.clients:
        if len(slot) == 0:
            continue
        dist = label_distribution(manifest, slot, class_count)
        tvs.append(0.5 * np.abs(dist - global_dist).sum())
    return float(np.mean(tvs))


# ---------- largest remainder ----------

def test_largest_remainder_exact():
    counts = largest_remainder(np.array([0.5, 0.3, 0.2]), 7)
    assert counts.sum() == 7
    assert counts.tolist() == [4, 2, 1]


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=500),
)
def test_largest_remainder_properties(weights, total):
    props = np.array(weights) / np.sum(weights)
    counts = largest_remainder(props, total)
    assert counts.sum() == total
    assert (counts >= 0).all()
    assert np.abs(counts - props * total).max() < 1.0 + 1e-9


# ---------- dirichlet partition ----------

def test_single_client_gets_everything(manifest):
    partition = dirichlet_partition(manifest, 1, 0.5, seed=0)
    assert partition.sizes() == [len(manifest.samples)]


def test_partition_conserves_samples(manifest):
    partition = dirichlet_partition(manifest, 5, 0.5, seed=1)
    ids = [sid for slot in partition.clients for sid in slot.sample_ids]
    assert sorted(ids) == sorted(s.id for s in manifest.samples)


@settings(max_examples=20, deadline=None)
@given(
    clients=st.integers(min_value=1, max_value=8),
    alpha=st.floats(min_value=0.05, max_value=50.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_partition_union_disjoint_property(clients, alpha, seed):
    manifest = tiny_manifest(class_count=3, per_class=7, seed=4)
    partition = dirichlet_partition(manifest, clients, alpha, seed=seed)
    ids = [sid for slot in partition.clients for sid in slot.sample_ids]
    assert len(ids) == len(set(ids)) == len(manifest.samples)
    for slot in partition.clients:
        for mask in slot.masks:
            assert any(mask)


def test_partition_deterministic(manifest):
    a = dirichlet_partition(manifest, 4, 0.3, seed=7)
    b = dirichlet_partition(manifest, 4, 0.3, seed=7)
    assert [s.sample_ids for s in a.clients] == [s.sample_ids for s in b.clients]


def test_low_alpha_skews_more_than_high():
    manifest = tiny_manifest(class_count=4, per_class=50, seed=2)
    low, high = [], []
    for seed in range(5):
        low.append(mean_tv(manifest, dirichlet_partition(manifest, 10, 0.5, seed=seed)))
        high.append(mean_tv(manifest, dirichlet_partition(manifest, 10, 5.0, seed=seed)))
    assert np.mean(low) > np.mean(high)


def test_huge_alpha_near_uniform():
    manifest = tiny_manifest(class_count=2, per_class=100, seed=3)
    sizes = []
    for seed in range(100):
        partition = dirichlet_partition(manifest, 4, 1e6, seed=seed)
        sizes.append(partition.sizes())
    mean_sizes = np.mean(sizes, axis=0)
    assert np.abs(mean_sizes - 50.0).max() < 1.0


# ---------- missing ----------

def test_missing_zero_beta_is_identity(manifest):
    partition = dirichlet_partition(manifest, 4, 1.0, seed=5)
    out = apply_missing(partition, 0.0, seed=6)
    assert all(all(all(m) for m in slot.masks) for slot in out.clients)


def test_missing_one_beta_keeps_exactly_one(manifest):
    partition = dirichlet_partition(manifest, 4, 1.0, seed=5)
    out = apply_missing(partition, 1.0, seed=6)
    kept = [sum(mask) for slot in out.clients for mask in slot.masks]
    assert set(kept) == {1}
    first = [mask[0] for slot in out.clients for mask in slot.masks]
    assert 0.3 < np.mean(first) < 0.7


def test_missing_rate_matches_enumeration():
    # with two modalities at beta=0.5 a modality goes missing when it is
    # dropped alone or when both drop and the fallback keeps the other:
    # 0.5*0.5 + 0.5*0.5*0.5 = 0.375
    manifest = tiny_manifest(class_count=2, dims=(2, 2), per_class=5000, seed=8)
    partition = dirichlet_partition(manifest, 1, 1.0, seed=9)
    out = apply_missing(partition, 0.5, seed=10)
    masks = out.clients[0].masks
    missing0 = np.mean([not m[0] for m in masks])
    missing1 = np.mean([not m[1] for m in masks])
    assert abs(missing0 - 0.375) < 0.02
    assert abs(missing1 - 0.375) < 0.02


def test_missing_requires_aligned_input(manifest):
    partition = dirichlet_partition(manifest, 2, 1.0, seed=5)
    damaged = apply_missing(partition, 0.9, seed=6)
    with pytest.raises(ValueError, match="aligned"):
        apply_missing(damaged, 0.5, seed=7)


# ---------- cross ----------

def test_cross_counts_exact(manifest):
    partition = round_robin_partition(manifest, 10)
    out = apply_cross(partition, 3, seed=12)
    image_only = [k for k, slot in enumerate(out.clients) if all(m == (True, False) for m in slot.masks)]
    text_only = [k for k, slot in enumerate(out.clients) if all(m == (False, True) for m in slot.masks)]
    assert len(image_only) == 3
    assert len(text_only) == 7
    again = apply_cross(partition, 3, seed=12)
    assert [s.masks for s in again.clients] == [s.masks for s in out.clients]


def test_cross_rejects_three_modalities():
    from fedmm.data import SynthConfig, synth_generate

    manifest3 = synth_generate(
        SynthConfig(class_count=2, modalities=("a", "b", "c"), dims=(2, 2, 2), samples_per_class=4, seed=13)
    )
    partition = dirichlet_partition(manifest3, 2, 1.0, seed=14)
    with pytest.raises(ValueError, match="2 modalities"):
        apply_cross(partition, 1, seed=15)


# ---------- hybrid ----------

def test_hybrid_keep_prob_one_is_identity(manifest):
    partition = round_robin_partition(manifest, 5)
    out = apply_hybrid(partition, 1.0, seed=17)
    assert all(all(all(m) for m in slot.masks) for slot in out.clients)


def test_hybrid_keep_prob_zero_single_modality(manifest):
    partition = round_robin_partition(manifest, 5)
    out = apply_hybrid(partition, 0.0, seed=17)
    for slot in out.clients:
        assert len(set(slot.masks)) == 1
        assert sum(slot.masks[0]) == 1


def test_hybrid_full_modality_frequency():
    manifest = tiny_manifest(class_count=2, per_class=10, seed=18)
    partition = round_robin_partition(manifest, 10)
    full_counts = []
    for seed in range(200):
        out = apply_hybrid(partition, 0.8, seed=seed)
        full = sum(1 for slot in out.clients if all(slot.masks[0]))
        full_counts.append(full)
    assert abs(np.mean(full_counts) - 6.4) < 0.5


# ---------- client stats ----------

def test_client_missing_rate_cases():
    aligned = ClientSlot(sample_ids=["a", "b"], masks=[(True, True), (True, True)])
    assert client_missing_rate(aligned, 2) == 0.0
    half = ClientSlot(sample_ids=["a", "b"], masks=[(True, True), (True, False)])
    assert client_missing_rate(half, 2) == 0.25
    single = ClientSlot(sample_ids=["a", "b"], masks=[(True, False), (True, False)])
    assert client_missing_rate(single, 2) == 0.5
    with pytest.raises(ValueError, match="no samples"):
        client_missing_rate(ClientSlot(), 2)


def test_classify_client_cases():
    assert classify_client(ClientSlot(["a"], [(True, True)])) == "aligned"
    assert classify_client(ClientSlot(["a", "b"], [(True, True), (False, True)])) == "partial_missing"
    assert classify_client(ClientSlot(["a", "b"], [(True, False), (True, False)])) == "single_modality"
    # one modality gone everywhere wins over partial damage in the other
    assert classify_client(ClientSlot(["a", "b"], [(False, True), (False, True)])) == "single_modality"


# ---------- scenario spec + persistence ----------

def test_scenario_spec_field_exclusivity():
    ScenarioSpec(kind="aligned", clients=4, alpha=0.5, seed=0)
    with pytest.raises(ValueError, match="requires beta"):
        ScenarioSpec(kind="missing", clients=4, alpha=0.5, seed=0)
    with pytest.raises(ValueError, match="does not take"):
        ScenarioSpec(kind="aligned", clients=4, alpha=0.5, seed=0, beta=0.5)
    with pytest.raises(ValueError, match="does not take"):
        ScenarioSpec(kind="cross", clients=4, alpha=0.5, seed=0, image_only_clients=2, keep_prob=0.5)


def test_build_scenario_and_roundtrip(tmp_path, manifest):
    spec = ScenarioSpec(kind="hybrid", clients=6, alpha=0.7, seed=44, keep_prob=0.8)
    partition = build_scenario(manifest, spec)
    path = tmp_path / "partition.json"
    save_partition(partition, spec, path)
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert saved["spec"] == spec.to_json_obj()
    assert [entry["id"] for entry in saved["clients"]] == list(range(len(partition.clients)))
    assert [[s["sid"] for s in entry["samples"]] for entry in saved["clients"]] == [s.sample_ids for s in partition.clients]
    assert [[tuple(s["mask"]) for s in entry["samples"]] for entry in saved["clients"]] == [s.masks for s in partition.clients]


def test_build_scenario_deterministic(manifest):
    spec = ScenarioSpec(kind="missing", clients=5, alpha=0.5, seed=31, beta=0.4)
    a = build_scenario(manifest, spec)
    b = build_scenario(manifest, spec)
    assert [s.masks for s in a.clients] == [s.masks for s in b.clients]
