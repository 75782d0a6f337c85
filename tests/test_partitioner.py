import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import manual_manifest, round_robin_partition, shards, tiny_manifest
from fedmm.client import RegularizerConfig
from fedmm.partitioner import (
    ScenarioSpec,
    apply_cross,
    apply_hybrid,
    apply_missing,
    build_scenario,
    dirichlet_partition,
    largest_remainder,
    save_partition,
)
from test_client import profiled


def label_distribution(manifest, rows, class_count):
    counts = np.bincount(manifest.labels[rows], minlength=class_count)
    return counts / counts.sum() if counts.sum() else counts


def mean_tv(manifest, partition):
    class_count = manifest.class_count
    global_counts = np.zeros(class_count)
    for s in manifest.samples:
        global_counts[s.label] += 1
    global_dist = global_counts / global_counts.sum()
    tvs = []
    for rows, _ in shards(partition):
        if len(rows) == 0:
            continue
        dist = label_distribution(manifest, rows, class_count)
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
    assert sorted(partition.rows.tolist()) == list(range(len(manifest)))


@settings(max_examples=20, deadline=None)
@given(
    clients=st.integers(min_value=1, max_value=8),
    alpha=st.floats(min_value=0.05, max_value=50.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_partition_union_disjoint_property(clients, alpha, seed):
    manifest = tiny_manifest(class_count=3, per_class=7, seed=4)
    partition = dirichlet_partition(manifest, clients, alpha, seed=seed)
    rows = partition.rows.tolist()
    assert len(rows) == len(set(rows)) == len(manifest.samples)
    assert partition.masks.shape == (len(rows), 2)
    assert np.array_equal(partition.masks, manifest.presence[partition.rows])
    assert partition.bounds.tolist() == [0, *np.cumsum(partition.sizes()).tolist()]
    assert len(partition.sizes()) == clients and all(type(n) is int for n in partition.sizes())
    assert not any(a.flags.writeable for a in (partition.rows, partition.masks, partition.bounds))


def test_partition_deterministic(manifest):
    a = dirichlet_partition(manifest, 4, 0.3, seed=7)
    b = dirichlet_partition(manifest, 4, 0.3, seed=7)
    assert a.rows.tolist() == b.rows.tolist() and a.bounds.tolist() == b.bounds.tolist()


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
    assert out.masks.all()


def test_missing_one_beta_keeps_exactly_one(manifest):
    partition = dirichlet_partition(manifest, 4, 1.0, seed=5)
    out = apply_missing(partition, 1.0, seed=6)
    masks = out.masks
    assert set(masks.sum(axis=1).tolist()) == {1}
    assert 0.3 < np.mean(masks[:, 0]) < 0.7


def test_missing_rate_matches_enumeration():
    # with two modalities at beta=0.5 a modality goes missing when it is
    # dropped alone or when both drop and the fallback keeps the other:
    # 0.5*0.5 + 0.5*0.5*0.5 = 0.375
    manifest = tiny_manifest(class_count=2, dims=(2, 2), per_class=5000, seed=8)
    partition = dirichlet_partition(manifest, 1, 1.0, seed=9)
    out = apply_missing(partition, 0.5, seed=10)
    masks = out.masks
    missing0 = np.mean(~masks[:, 0])
    missing1 = np.mean(~masks[:, 1])
    assert abs(missing0 - 0.375) < 0.02
    assert abs(missing1 - 0.375) < 0.02


def test_missing_requires_aligned_input():
    # manual_manifest's sample 'b' has image only; aligned takes it as it is
    for kind, knob in (("missing", {"beta": 0.5}), ("cross", {"image_only_clients": 1}), ("hybrid", {"keep_prob": 0.5})):
        spec = ScenarioSpec(kind=kind, clients=2, alpha=1.0, seed=5, **knob)
        with pytest.raises(ValueError, match=f"^scenario '{kind}' needs a fully aligned train manifest; sample 'b' lacks 'text'$"):
            build_scenario(manual_manifest(), spec)
    assert build_scenario(manual_manifest(), ScenarioSpec(kind="aligned", clients=2, alpha=1.0, seed=5)).total() == 4


# ---------- cross ----------

def test_cross_counts_exact(manifest):
    partition = round_robin_partition(manifest, 10)
    out = apply_cross(partition, 3, seed=12)
    image_only = [k for k, (_, masks) in enumerate(shards(out)) if (masks == (True, False)).all()]
    text_only = [k for k, (_, masks) in enumerate(shards(out)) if (masks == (False, True)).all()]
    assert len(image_only) == 3
    assert len(text_only) == 7
    again = apply_cross(partition, 3, seed=12)
    assert np.array_equal(again.masks, out.masks)
    assert out.rows is partition.rows and out.bounds is partition.bounds


def test_cross_rejects_three_modalities():
    from fedmm.data import SynthConfig, synth_generate

    manifest3 = synth_generate(
        SynthConfig(class_count=2, modalities=("a", "b", "c"), dims=(2, 2, 2), samples_per_class=4, seed=13)
    )
    spec = ScenarioSpec(kind="cross", clients=2, alpha=1.0, seed=14, image_only_clients=1)
    with pytest.raises(ValueError, match="^scenario 'cross' needs exactly 2 modalities, got 3$"):
        build_scenario(manifest3, spec)


# ---------- hybrid ----------

def test_hybrid_keep_prob_one_is_identity(manifest):
    partition = round_robin_partition(manifest, 5)
    out = apply_hybrid(partition, 1.0, seed=17)
    assert out.masks.all()


def test_hybrid_keep_prob_zero_single_modality(manifest):
    partition = round_robin_partition(manifest, 5)
    out = apply_hybrid(partition, 0.0, seed=17)
    for _, masks in shards(out):
        assert (masks == masks[0]).all()
        assert masks[0].sum() == 1


def test_hybrid_full_modality_frequency():
    manifest = tiny_manifest(class_count=2, per_class=10, seed=18)
    partition = round_robin_partition(manifest, 10)
    full_counts = []
    for seed in range(200):
        out = apply_hybrid(partition, 0.8, seed=seed)
        full = sum(1 for _, masks in shards(out) if all(masks[0]))
        full_counts.append(full)
    assert abs(np.mean(full_counts) - 6.4) < 0.5


# ---------- client kinds ----------

def test_classify_client_cases():
    # a client's kind shows in the gamma it earns: 0 aligned, gamma_max
    # single-modality, gamma_max times its missing rate partial missing
    def gamma(*masks):
        return profiled([list(masks)], RegularizerConfig(gamma_max=1.0)).gamma[0]

    assert gamma((True, True)) == 0.0
    assert gamma((True, True), (False, True)) == 0.25
    assert gamma((True, False), (True, False)) == 1.0
    # one modality gone everywhere wins over partial damage in the other
    assert gamma((False, True), (False, True)) == 1.0
    assert gamma((False, True, True), (False, True, False)) == 1.0
    assert gamma((True, True, False), (True, False, True)) == 2 / 6
    # an empty client has no kind and earns nothing
    assert profiled([[], [(True, False)]], RegularizerConfig(gamma_max=1.0)).gamma == (0.0, 1.0)


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
    save_partition(partition, manifest, spec, path)
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert saved["spec"] == spec.to_json_obj()
    assert [entry["id"] for entry in saved["clients"]] == list(range(6))
    assert [[s["sid"] for s in entry["samples"]] for entry in saved["clients"]] == [[manifest.ids[r] for r in rows] for rows, _ in shards(partition)]
    assert [[s["mask"] for s in entry["samples"]] for entry in saved["clients"]] == [masks.tolist() for _, masks in shards(partition)]


def test_build_scenario_deterministic(manifest):
    spec = ScenarioSpec(kind="missing", clients=5, alpha=0.5, seed=31, beta=0.4)
    a = build_scenario(manifest, spec)
    b = build_scenario(manifest, spec)
    assert np.array_equal(a.masks, b.masks) and np.array_equal(a.rows, b.rows)
