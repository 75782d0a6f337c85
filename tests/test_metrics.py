import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import randomize_delta, tiny_manifest
from fedmm.data import SynthConfig, synth_generate
from fedmm.metrics import accuracy, eval_chunks, evaluate, macro_f1, roc_auc
from fedmm.model import ModelConfig, init_model


# ---------- oracles ----------

def pairwise_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def confusion_f1(predictions, labels, class_count):
    per_class = []
    for c in range(class_count):
        tp = int(np.sum((predictions == c) & (labels == c)))
        fp = int(np.sum((predictions == c) & (labels != c)))
        fn = int(np.sum((predictions != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(per_class)), per_class


# ---------- roc auc ----------

def test_auc_tied_example():
    value = roc_auc(np.array([0.9, 0.8, 0.8, 0.1]), np.array([1, 1, 0, 0]))
    assert value == pytest.approx(0.875, abs=1e-12)


def test_auc_perfect_and_inverted():
    scores = np.array([0.1, 0.4, 0.6, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(scores, labels) == 1.0
    assert roc_auc(scores, 1 - labels) == 0.0


def test_auc_matches_pairwise_oracle():
    gen = np.random.default_rng(42)
    for trial in range(100):
        n = int(gen.integers(2, 201))
        labels = gen.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid forces plenty of ties
        scores = gen.integers(0, 6, size=n).astype(float) / 5.0
        got = roc_auc(scores, labels)
        want = pairwise_auc(scores, labels)
        assert got == pytest.approx(want, abs=1e-12)


def test_auc_complement_symmetry_tie_free():
    gen = np.random.default_rng(7)
    scores = gen.permutation(np.linspace(0.0, 1.0, 40))
    labels = gen.integers(0, 2, size=40)
    labels[:2] = [0, 1]
    assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_auc_monotone_transform_invariant():
    gen = np.random.default_rng(11)
    scores = gen.normal(size=60)
    labels = gen.integers(0, 2, size=60)
    labels[:2] = [0, 1]
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(3.0 * scores + 10.0, labels) == pytest.approx(base, abs=1e-12)


def test_auc_single_class_rejected():
    with pytest.raises(ValueError, match="no negative"):
        roc_auc(np.array([0.2, 0.8]), np.array([1, 1]))
    with pytest.raises(ValueError, match="no positive"):
        roc_auc(np.array([0.2, 0.8]), np.array([0, 0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_auc_random_instances_match_oracle(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 64))
    labels = gen.integers(0, 2, size=n)
    labels[gen.integers(0, n)] = 0
    labels[gen.integers(0, n)] = 1
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = np.round(gen.normal(size=n), 1)
    assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


# ---------- macro f1 ----------

def test_f1_degenerate_example():
    predictions = np.zeros(8, dtype=int)
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    macro, per_class = macro_f1(predictions, labels, 2)
    assert per_class[0] == pytest.approx(2.0 / 3.0)
    assert per_class[1] == 0.0
    assert macro == pytest.approx(1.0 / 3.0)


def test_f1_perfect():
    labels = np.array([0, 1, 2, 0, 1, 2])
    macro, per_class = macro_f1(labels.copy(), labels, 3)
    assert macro == 1.0
    assert per_class == (1.0, 1.0, 1.0)


def test_f1_absent_class_drags_mean():
    labels = np.array([0, 0, 1, 1])
    predictions = labels.copy()
    macro, per_class = macro_f1(predictions, labels, 3)
    assert per_class[2] == 0.0
    assert macro == pytest.approx(2.0 / 3.0)


def test_f1_matches_confusion_oracle():
    gen = np.random.default_rng(3)
    for trial in range(50):
        class_count = int(gen.integers(2, 7))
        n = int(gen.integers(1, 120))
        labels = gen.integers(0, class_count, size=n)
        predictions = gen.integers(0, class_count, size=n)
        macro, per_class = macro_f1(predictions, labels, class_count)
        want_macro, want_per = confusion_f1(predictions, labels, class_count)
        assert macro == pytest.approx(want_macro, abs=1e-12)
        assert list(per_class) == pytest.approx(want_per, abs=1e-12)


def test_f1_relabel_invariance():
    gen = np.random.default_rng(19)
    class_count = 4
    labels = gen.integers(0, class_count, size=80)
    predictions = gen.integers(0, class_count, size=80)
    macro, _ = macro_f1(predictions, labels, class_count)
    perm = gen.permutation(class_count)
    macro_p, _ = macro_f1(perm[predictions], perm[labels], class_count)
    assert macro_p == pytest.approx(macro, abs=1e-12)


# ---------- accuracy ----------

def test_accuracy_plain():
    assert accuracy(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2])) == pytest.approx(0.75)


# ---------- evaluate ----------

def test_evaluate_auto_picks_auc_for_binary():
    manifest = tiny_manifest(class_count=2, per_class=20, seed=1)
    cfg = ModelConfig(
        modality_dims=(4, 3), hidden=6, encoder_depth=1, trunk_depth=1,
        class_count=2, rank=2, adapter_alpha=2.0, seed=1,
    )
    base, delta = init_model(cfg)
    result = evaluate(base, delta, manifest)
    assert result.metric == "roc_auc"
    assert result.count == 40
    assert 0.0 <= result.value <= 1.0


def test_evaluate_auto_picks_f1_for_multiclass():
    manifest = tiny_manifest(class_count=3, per_class=10, seed=2)
    cfg = ModelConfig(
        modality_dims=(4, 3), hidden=6, encoder_depth=1, trunk_depth=1,
        class_count=3, rank=2, adapter_alpha=2.0, seed=2,
    )
    base, delta = init_model(cfg)
    result = evaluate(base, delta, manifest)
    assert result.metric == "macro_f1"
    assert result.per_class is not None
    assert len(result.per_class) == 3


def test_evaluate_zero_adapter_near_chance_binary():
    # untrained adapters leave the random base model; AUC hovers at 1/2
    values = []
    for seed in range(5):
        synth = SynthConfig(
            class_count=2, modalities=("image", "text"), dims=(6, 6),
            samples_per_class=200, centroid_scale=1.0, noise_scale=1.0, seed=seed,
        )
        manifest = synth_generate(synth, split="test")
        cfg = ModelConfig(
            modality_dims=(6, 6), hidden=8, encoder_depth=1, trunk_depth=1,
            class_count=2, rank=2, adapter_alpha=2.0, seed=seed + 100,
        )
        base, delta = init_model(cfg)
        values.append(evaluate(base, delta, manifest).value)
    assert np.mean(values) == pytest.approx(0.5, abs=0.05)


def test_evaluate_explicit_metric_and_chunking():
    manifest = tiny_manifest(class_count=3, per_class=10, seed=4)
    cfg = ModelConfig(
        modality_dims=(4, 3), hidden=6, encoder_depth=1, trunk_depth=1,
        class_count=3, rank=2, adapter_alpha=2.0, seed=4,
    )
    base, delta = init_model(cfg)
    small = evaluate(base, delta, manifest, metric="macro_f1", chunk=7)
    big = evaluate(base, delta, manifest, metric="macro_f1", chunk=512)
    assert small.value == big.value
    assert small.accuracy == big.accuracy
    assert small.metric == "macro_f1"


def test_evaluate_prebuilt_chunks_match_fresh_build():
    manifest = tiny_manifest(class_count=3, per_class=10, seed=4)
    cfg = ModelConfig(
        modality_dims=(4, 3), hidden=6, encoder_depth=1, trunk_depth=1,
        class_count=3, rank=2, adapter_alpha=2.0, seed=4,
    )
    base, delta = init_model(cfg)
    delta = randomize_delta(delta, seed=2)
    fresh = evaluate(base, delta, manifest)
    chunks = eval_chunks(manifest)
    assert evaluate(base, delta, manifest, chunks=chunks) == fresh
    assert evaluate(base, delta, manifest, chunks=chunks) == fresh
    small = eval_chunks(manifest, 7)
    assert [len(batch) for batch in small] == [7, 7, 7, 7, 2]
    assert evaluate(base, delta, manifest, chunks=small) == evaluate(base, delta, manifest, chunk=7)
    assert not any(a.flags.writeable for b in small for a in (*b.features, *b.presence, b.labels))


def test_evaluate_rejects_auc_for_multiclass():
    manifest = tiny_manifest(class_count=3, per_class=4, seed=5)
    cfg = ModelConfig(
        modality_dims=(4, 3), hidden=6, encoder_depth=1, trunk_depth=1,
        class_count=3, rank=2, adapter_alpha=2.0, seed=5,
    )
    base, delta = init_model(cfg)
    with pytest.raises(ValueError, match="binary"):
        evaluate(base, delta, manifest, metric="roc_auc")
