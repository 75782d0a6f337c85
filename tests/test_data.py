import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import validate_reference as reference
from conftest import manual_manifest, manual_records, partition_of, shard_of, tiny_manifest
from fedmm import rng
from fedmm.data import (
    SPLITS,
    CountTable,
    DatasetManifest,
    ModalityDescriptor,
    Sample,
    SynthConfig,
    load_manifest,
    modality_stats,
    pattern_labels,
    save_manifest,
    synth_centroids,
    synth_generate,
    validate_manifest,
)


def test_roundtrip_byte_identical(tmp_path, manifest):
    p1 = tmp_path / "m1.jsonl"
    p2 = tmp_path / "m2.jsonl"
    save_manifest(manifest, p1)
    save_manifest(load_manifest(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_with_missing_modalities(tmp_path):
    manifest = manual_manifest()
    p1 = tmp_path / "m1.jsonl"
    p2 = tmp_path / "m2.jsonl"
    save_manifest(manifest, p1)
    loaded = load_manifest(p1)
    save_manifest(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert "image" not in loaded.samples[2].features
    assert loaded.samples[1].presence(loaded.modalities) == (True, False)


def test_header_line_shape(tmp_path, manifest):
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    head = json.loads(path.read_text().splitlines()[0])
    assert head == {
        "modalities": [{"name": "image", "dim": 4}, {"name": "text", "dim": 3}],
        "class_count": 3,
        "split": "train",
    }


def rewrite_line(path, lineno, edit):
    """Replace one manifest line by edit(its JSON object), as JSON text."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = edit(json.loads(lines[lineno - 1]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "lineno,key",
    [(1, "modalities"), (1, "class_count"), (1, "split"), (2, "label"), (3, "id"), (4, "features")],
)
def test_load_manifest_names_file_line_and_missing_key(tmp_path, manifest, lineno, key):
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    rewrite_line(path, lineno, lambda obj: json.dumps({k: v for k, v in obj.items() if k != key}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: no key '{key}'$"):
        load_manifest(path)


@pytest.mark.parametrize("lineno", [1, 2])
@pytest.mark.parametrize("text,phrase", [("[1, 2]", "expected a JSON object, got list"), ("{", "Expecting")])
def test_load_manifest_rejects_line_that_is_not_an_object(tmp_path, manifest, lineno, text, phrase):
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    rewrite_line(path, lineno, lambda obj: text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: {phrase}"):
        load_manifest(path)


@pytest.mark.parametrize(
    "lineno,key,value,phrase",
    [
        (1, "modalities", [{"name": "image"}, {"name": "text", "dim": 3}], "modalities[0]: no key 'dim'"),
        (1, "modalities", [{"name": "image", "dim": "4"}, {"name": "text", "dim": 3}], "modalities[0].dim must be an integer"),
        (1, "modalities", [{"name": "image", "dim": 4}, {"name": "text", "dim": 3.0}], "modalities[1].dim must be an integer"),
        (1, "modalities", [{"name": "image", "dim": 4}, 3], "modalities[1] must be an object"),
        (1, "modalities", {"image": 4, "text": 3}, "modalities must be a list"),
        (1, "class_count", "3", "class_count must be an integer"),
        (2, "features", [[0.0, 1.0, 2.0, 3.0]], "features must be an object"),
        (2, "features", {"image": {"x": 1}}, "features['image'] is not a list of numbers"),
        (2, "features", {"image": ["1.5", "2", "3", "4"]}, "features['image'] is not a list of numbers"),
        (2, "features", {"image": [" 3 ", "4e0", 1.0, 2.0]}, "features['image'] is not a list of numbers"),
        (2, "features", {"image": [True, False, True, False]}, "features['image'] is not a list of numbers"),
        (2, "features", {"image": [1.0, True, 0.0, 2.0]}, "features['image'] is not a list of numbers"),
        (2, "features", {"image": [[1.0, 2.0], [3.0, 4.0]]}, "features['image'] is not a list of numbers"),
        (2, "label", [1], "label must be an integer"),
        (3, "id", 7, "id must be a string"),
    ],
    ids=["no-dim", "str-dim", "float-dim", "entry-not-object", "modalities-not-list", "str-class-count",
         "features-not-object", "feature-not-numbers", "feature-numeric-strings", "feature-padded-strings",
         "feature-booleans", "feature-number-and-boolean", "feature-nested-lists", "list-label", "int-id"],
)
def test_load_manifest_names_file_line_and_bad_value(tmp_path, manifest, lineno, key, value, phrase):
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    rewrite_line(path, lineno, lambda obj: json.dumps({**obj, key: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{lineno}: {phrase}')}"):
        load_manifest(path)


@pytest.mark.parametrize(
    "lineno,edit,phrase",
    [
        (1, lambda obj: json.dumps(obj)[:-1] + ', "split": "test"}', "key 'split' appears twice in one object"),
        (2, lambda obj: json.dumps(obj)[:-1] + ', "label": 0}', "key 'label' appears twice in one object"),
        (2, lambda obj: json.dumps({**obj, "features": {**obj["features"], "image": [math.nan, 0.0, 0.0, 0.0]}}), "NaN is not a finite number"),
        (3, lambda obj: json.dumps({**obj, "features": {**obj["features"], "text": [0.0, -math.inf, 0.0]}}), "-Infinity is not a finite number"),
    ],
    ids=["header-key-twice", "record-key-twice", "nan-feature", "infinite-feature"],
)
def test_load_manifest_rejects_line_that_is_not_strict_json(tmp_path, manifest, lineno, edit, phrase):
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    rewrite_line(path, lineno, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{lineno}: {phrase}')}$"):
        load_manifest(path)


def test_manifest_with_unicode_line_breaks_in_ids_round_trips(tmp_path):
    # dumps keeps U+0085, U+2028 and U+2029 as is; str.splitlines breaks at them, JSON lines do not
    mods, samples = manual_records()
    for s, tail in zip(samples, ["\x85", "\u2028", "\u2029"]):
        s.id += tail
    path = tmp_path / "m.jsonl"
    save_manifest(DatasetManifest.from_records(mods, 2, "train", samples), path)
    assert list(load_manifest(path).ids) == [s.id for s in samples]


@pytest.mark.parametrize("dim", [0, -1])
def test_load_manifest_rejects_dim_below_one(tmp_path, manifest, dim):
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    rewrite_line(path, 1, lambda obj: json.dumps({**obj, "modalities": [{"name": "image", "dim": dim}, {"name": "text", "dim": 3}]}))
    with pytest.raises(ValueError, match=f"^modality 'image' dim must be >= 1, got {dim}$"):
        load_manifest(path)


@pytest.mark.parametrize("name", ["", "a+b"])
def test_load_manifest_rejects_modality_name_that_is_empty_or_holds_plus(tmp_path, manifest, name):
    # '+' joins modality names in counts.csv's presence patterns
    path = tmp_path / "m.jsonl"
    save_manifest(manifest, path)
    rewrite_line(path, 1, lambda obj: json.dumps({**obj, "modalities": [{"name": "image", "dim": 4}, {"name": name, "dim": 3}]}))
    with pytest.raises(ValueError, match=f"^modality name {re.escape(repr(name))} is empty or holds '\\+'"):
        load_manifest(path)


_json_value = st.recursive(
    st.one_of(st.integers(-2, 4), st.booleans(), st.floats(allow_infinity=False), st.text(max_size=2), st.none()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def _manifest_lines(draw):
    """A well-formed manifest's header and records as JSON objects, with
    at most a few values, at any depth, swapped for arbitrary JSON."""
    dims = draw(st.dictionaries(st.sampled_from(["a", "b"]), st.integers(1, 2), min_size=1))
    classes = draw(st.integers(2, 3))
    header = {"modalities": [{"name": k, "dim": d} for k, d in dims.items()], "class_count": classes, "split": "train"}
    records = []
    for i in range(draw(st.integers(0, 3))):
        present = draw(st.lists(st.sampled_from(sorted(dims)), min_size=1, max_size=len(dims), unique=True))
        features = {k: draw(st.lists(st.floats(-2, 2), min_size=dims[k], max_size=dims[k])) for k in present}
        records.append({"id": f"r{i}", "label": draw(st.integers(0, classes - 1)), "features": features})
    for _ in range(draw(st.integers(0, 2))):
        obj = draw(st.sampled_from([header, *records]))
        while True:  # walk down to some nested object or list, then replace one of its entries
            keys = list(obj) if isinstance(obj, dict) else list(range(len(obj)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(obj[key], (dict, list)) and obj[key] and draw(st.booleans()):
                obj = obj[key]
                continue
            obj[key] = draw(_json_value)
            break
    return [header, *records]


@settings(max_examples=300, deadline=None)
@given(lines=_manifest_lines())
def test_load_manifest_rejects_or_round_trips(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    try:
        manifest = load_manifest(path)
    except ValueError:
        return
    again = path.with_name("again.jsonl")
    save_manifest(manifest, again)
    reloaded = load_manifest(again)
    assert (reloaded.modalities, reloaded.class_count, reloaded.split) == (manifest.modalities, manifest.class_count, manifest.split)
    assert [(s.id, s.label, sorted(s.features)) for s in reloaded.samples] == [(s.id, s.label, sorted(s.features)) for s in manifest.samples]
    for got, want in zip(reloaded.samples, manifest.samples):
        assert all(np.array_equal(got.features[k], want.features[k]) for k in want.features)


def test_validate_rejects_empty_sample():
    _, samples = manual_records()
    samples.append(Sample("empty", 0, {}))
    with pytest.raises(ValueError, match="empty"):
        manual_manifest(samples)


def test_validate_rejects_bad_dim():
    _, samples = manual_records()
    samples[0].features["image"] = np.zeros(3)
    with pytest.raises(ValueError, match="'a'"):
        manual_manifest(samples)


def test_validate_rejects_nan():
    _, samples = manual_records()
    samples[3].features["text"] = np.array([np.nan, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        manual_manifest(samples)


def test_validate_rejects_label_out_of_range():
    _, samples = manual_records()
    samples[0].label = 2
    with pytest.raises(ValueError, match="label"):
        manual_manifest(samples)


_FAULTS = ("non_finite", "wrong_length", "negative_label", "fractional_label", "large_label", "duplicate_id",
           "undeclared", "empty", "list_vector", "str_vector", "complex_vector", "object_vector", "no_number_label")


@st.composite
def _faulty_records(draw):
    """A well-formed manifest's header (modalities, class count) and
    records, of 1-3 modalities with random dims, classes and presence,
    then up to two faults, each on a drawn record."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    names = [f"m{i}" for i in range(len(dims))]
    classes = draw(st.integers(2, 4))
    samples = []
    for i in range(draw(st.integers(1, 6))):
        present = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        features = {}
        for name in present:
            dim = dims[names.index(name)]
            features[name] = np.array(draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)))
        samples.append(Sample(f"s{i}", draw(st.integers(0, classes - 1)), features))
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(_FAULTS))
        sample = draw(st.sampled_from(samples))
        # a vector fault lands on a declared, still well-formed vector, if any
        vectors = sorted(n for n, v in sample.features.items() if n in names and isinstance(v, np.ndarray) and v.size)
        name = draw(st.sampled_from(vectors)) if vectors else None
        if fault == "non_finite" and name:
            vec = sample.features[name].copy()
            vec[draw(st.integers(0, vec.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            sample.features[name] = vec
        elif fault == "wrong_length" and name:
            size = draw(st.integers(0, 5).filter(lambda n: n != dims[names.index(name)]))
            sample.features[name] = np.zeros(size)
        elif fault == "negative_label":
            sample.label = draw(st.sampled_from([-1, -2, float("-inf")]))
        elif fault == "fractional_label":
            # in range or not, whole or not: an integer cast would accept -0.5 and 1.0
            sample.label = draw(st.sampled_from([-0.5, -1e-9, 0.5, 1.0, classes - 0.5, classes + 0.5, float("nan")]))
        elif fault == "large_label":
            sample.label = draw(st.sampled_from([classes, classes + 1, 10**20]))
        elif fault == "duplicate_id":
            sample.id = draw(st.sampled_from([other for other in samples if other is not sample] or samples)).id
        elif fault == "undeclared":
            sample.features["zz"] = np.zeros(1)
        elif fault == "empty":
            sample.features = {}
        elif fault == "list_vector" and name:
            sample.features[name] = sample.features[name].tolist()
        elif fault == "str_vector" and name:
            vec = sample.features[name]
            sample.features[name] = draw(st.sampled_from([str(vec.tolist()), vec.astype(str)]))
        elif fault == "complex_vector" and name:
            sample.features[name] = sample.features[name] + draw(st.sampled_from([0j, 1j]))
        elif fault == "object_vector" and name:
            sample.features[name] = sample.features[name].astype(object)
        elif fault == "no_number_label":
            sample.label = draw(st.sampled_from(["x", "1", None, [1], 1j]))
    mods = tuple(ModalityDescriptor(n, d) for n, d in zip(names, dims))
    return mods, classes, samples


def _verdict(check, *args):
    try:
        check(*args)
    except Exception as err:  # the type and message are the verdict
        return type(err), str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(records=_faulty_records())
def test_validate_matches_per_sample_reference(records):
    """Building a manifest from records accepts exactly what the frozen
    per-sample validator accepts, and otherwise raises its error; an
    accepted manifest's columns hold the records bit for bit."""
    mods, classes, samples = records
    header = {"modalities": mods, "class_count": classes, "split": "train"}
    built = []
    verdict = _verdict(lambda: built.append(DatasetManifest.from_records(samples=samples, **header)))
    assert verdict == _verdict(reference.validate_manifest, SimpleNamespace(samples=samples, **header))
    if verdict is None:
        validate_manifest(built[0])
        for got, want in zip(built[0].samples, samples, strict=True):
            assert got.id == want.id and got.label == want.label and sorted(got.features) == sorted(want.features)
            assert all(got.features[k].view(np.uint64).tolist() == want.features[k].view(np.uint64).tolist() for k in want.features)


@pytest.mark.parametrize(
    "vector",
    [[0.0, 1.0], "0.0, 1.0", np.array(["0.0", "1.0"]), np.array([0.0, 1.0], dtype=object), np.array([0.0, 1.0 + 0j]),
     np.array([0.0, 1.0 + 2j])],
    ids=["list", "str", "str-array", "object-array", "complex-array", "complex-array-with-imaginary-part"],
)
def test_validate_rejects_vector_that_is_no_real_array(vector):
    # sample 'c' is faulty too, so the error must name the first in record order
    _, samples = manual_records()
    samples[1].features["image"] = vector
    samples[2].features["text"] = [1.0, 1.0]
    message = "sample 'b' modality 'image' is not a numpy array of bools, ints, uints or floats"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        manual_manifest(samples)


def test_validate_rejects_negative_fractional_label():
    _, samples = manual_records()
    samples[2].label = -0.5
    with pytest.raises(ValueError, match=r"^sample 'c' label -0.5 outside \[0, 2\)$"):
        manual_manifest(samples)


@pytest.mark.parametrize(
    "label", [0.5, 1.0, np.float64(1.0), "x", None, [1], 1j], ids=["0.5", "1.0", "float64-1.0", "str", "None", "list", "complex"]
)
def test_validate_rejects_label_that_is_not_an_integer(label):
    _, samples = manual_records()
    samples[1].label = label
    message = f"sample 'b' label {label} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        manual_manifest(samples)


@pytest.mark.parametrize("label", [True, np.int64(1), np.uint8(1)], ids=["True", "int64-1", "uint8-1"])
def test_integer_label_of_any_integer_type_is_stored_as_int64(label):
    _, samples = manual_records()
    samples[1].label = label
    manifest = manual_manifest(samples)
    assert manifest.labels.dtype == np.int64 and manifest.by_id("b").label == 1


def _column(columns, name):
    """A column by key, or a modality's feature matrix by modality name."""
    return columns[name] if name in columns else columns["features"][("image", "text").index(name)]


def _manual_columns():
    """manual_manifest's columns, as fresh writable arrays."""
    m = manual_manifest()
    return {"ids": list(m.ids), "labels": m.labels.copy(), "features": [f.copy() for f in m.features],
            "presence": m.presence.copy()}


@pytest.mark.parametrize(
    "column,at,value,message",
    [
        ("ids", 2, "b", "duplicate sample id 'b'"),
        ("labels", 1, 2, "sample 'b' label 2 outside [0, 2)"),
        ("labels", 3, -1, "sample 'd' label -1 outside [0, 2)"),
        ("presence", (2, 1), False, "sample 'c' has no modalities"),
        ("text", (3, 0), np.inf, "sample 'd' modality 'text' has non-finite entries"),
    ],
)
def test_validate_names_faulty_column_entry(column, at, value, message):
    columns = _manual_columns()
    _column(columns, column)[at] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DatasetManifest(manual_manifest().modalities, 2, "train", **columns)


def test_manifest_columns_are_write_protected():
    manifest = manual_manifest()
    for array in (manifest.labels, manifest.presence, *manifest.features, manifest.by_id("a").features["image"]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_synth_deterministic():
    cfg = SynthConfig(seed=5)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    assert [s.id for s in a.samples] == [s.id for s in b.samples]
    for sa, sb in zip(a.samples, b.samples):
        for name in sa.features:
            assert np.array_equal(sa.features[name], sb.features[name])


def test_synth_rejects_unknown_split():
    with pytest.raises(ValueError, match=r"^split must be one of \('train', 'test'\), got 'val'$"):
        synth_generate(SynthConfig(), split="val")


def test_synth_zero_noise_hits_centroids():
    cfg = SynthConfig(class_count=2, dims=(3, 2), samples_per_class=4, noise_scale=0.0, seed=9)
    manifest = synth_generate(cfg)
    centroids = synth_centroids(cfg)
    for s in manifest.samples:
        for name in ("image", "text"):
            assert np.array_equal(s.features[name], centroids[(s.label, name)])


def test_synth_splits_share_centroids_but_not_noise():
    cfg = SynthConfig(class_count=2, dims=(4, 4), samples_per_class=6, seed=3)
    train = synth_generate(cfg, "train")
    test = synth_generate(cfg, "test")
    assert train.split == "train" and test.split == "test"
    assert not np.array_equal(train.samples[0].features["image"], test.samples[0].features["image"])
    quiet = SynthConfig(class_count=2, dims=(4, 4), samples_per_class=1, noise_scale=0.0, seed=3)
    a = synth_generate(quiet, "train")
    b = synth_generate(quiet, "test")
    assert np.array_equal(a.samples[0].features["image"], b.samples[0].features["image"])


def per_sample_synth_features(cfg: SynthConfig, split: str) -> list[list[np.ndarray]]:
    """Reference for synth_generate's features: per sample, per modality,
    two uniform draws of (dim + 1) // 2 and the Box-Muller mapping."""
    centroids = synth_centroids(cfg)
    gen = rng.substream(cfg.seed, "synth", "noise", split)
    rows = []
    for c in range(cfg.class_count):
        for _ in range(cfg.samples_per_class):
            row = []
            for name, dim in zip(cfg.modalities, cfg.dims):
                u1 = gen.random((dim + 1) // 2)
                u2 = gen.random((dim + 1) // 2)
                radius = np.sqrt(-2.0 * np.log1p(-u1))
                angle = 2.0 * np.pi * u2
                z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:dim]
                row.append(centroids[(c, name)] + cfg.noise_scale * z)
            rows.append(row)
    return rows


@pytest.mark.parametrize("dims", [(16, 16), (5, 16, 9), (1,), (3, 2, 7)])
def test_synth_matches_per_sample_reference(dims):
    names = tuple(f"m{i}" for i in range(len(dims)))
    cfg = SynthConfig(class_count=3, modalities=names, dims=dims, samples_per_class=40, noise_scale=1.5, seed=11)
    for split in SPLITS:
        manifest = synth_generate(cfg, split)
        for sample, expected in zip(manifest.samples, per_sample_synth_features(cfg, split), strict=True):
            for name, features in zip(names, expected):
                assert np.array_equal(sample.features[name], features)


def nearest_centroid_accuracy(train: DatasetManifest, test: DatasetManifest) -> float:
    """Accuracy of classifying test samples by nearest train class mean.

    Uses concatenated per-modality features; both manifests must be fully
    aligned. A reference point for how separable a synthetic draw is.
    """
    def stacked(man: DatasetManifest) -> np.ndarray:
        rows = []
        for s in man.samples:
            rows.append(np.concatenate([s.features[m.name] for m in man.modalities]))
        return np.stack(rows)

    x_train = stacked(train)
    y_train = np.array([s.label for s in train.samples])
    x_test = stacked(test)
    y_test = np.array([s.label for s in test.samples])
    means = np.stack([x_train[y_train == c].mean(axis=0) for c in range(train.class_count)])
    d2 = ((x_test[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == y_test).mean())


def test_nearest_centroid_oracle_separable():
    cfg = SynthConfig(
        class_count=4,
        dims=(16, 16),
        samples_per_class=200,
        centroid_scale=10.0,
        noise_scale=0.1,
        seed=17,
    )
    train = synth_generate(cfg, "train")
    held_out = synth_generate(cfg, "test")
    assert nearest_centroid_accuracy(train, held_out) > 0.99


def test_synth_class_means_converge():
    cfg = SynthConfig(
        class_count=2,
        dims=(6, 5),
        samples_per_class=10_000,
        centroid_scale=2.0,
        noise_scale=1.0,
        seed=21,
    )
    manifest = synth_generate(cfg)
    centroids = synth_centroids(cfg)
    bound = 5.0 * cfg.noise_scale / np.sqrt(cfg.samples_per_class)
    deviations = []
    for c in range(cfg.class_count):
        rows = [s for s in manifest.samples if s.label == c]
        for name in cfg.modalities:
            mean = np.mean([s.features[name] for s in rows], axis=0)
            deviations.extend(np.abs(mean - centroids[(c, name)]).tolist())
    deviations = np.array(deviations)
    assert (deviations < bound).mean() >= 0.99


def test_pattern_labels_order():
    mods = (ModalityDescriptor("image", 2), ModalityDescriptor("text", 2))
    assert pattern_labels(mods) == ["image", "text", "image+text"]


def test_modality_stats_hand_count():
    manifest = manual_manifest()
    partition = partition_of([
        shard_of(manifest, ["a", "b"], [(True, True), (True, False)]),
        shard_of(manifest, ["c", "d"], [(False, True), (True, False)]),
    ])
    table = modality_stats(partition, manifest)
    counts = {(r[0], r[1], r[2]): r[3] for r in table.rows()}
    assert counts[(0, 0, "image+text")] == 1
    assert counts[(0, 1, "image")] == 1
    assert counts[(1, 0, "text")] == 1
    assert counts[(1, 1, "image")] == 1
    assert counts[(0, 0, "image")] == 0
    assert sum(counts.values()) == 4
    # dense table: clients x classes x patterns rows
    assert len(table.rows()) == 2 * 2 * 3


def test_modality_stats_row_sums_match_partition(manifest):
    from fedmm.partitioner import dirichlet_partition

    partition = dirichlet_partition(manifest, 4, 0.5, seed=2)
    table = modality_stats(partition, manifest)
    per_client = {}
    for client, _, _, count in table.rows():
        per_client[client] = per_client.get(client, 0) + count
    assert [per_client[k] for k in range(4)] == partition.sizes()


def test_modality_stats_patterns_by_bit_value():
    # three modalities: a mask's pattern is the one at its bit value - 1
    mods = (ModalityDescriptor("a", 1), ModalityDescriptor("b", 1), ModalityDescriptor("c", 1))
    records = [Sample(f"s{i}", i % 2, {m.name: np.zeros(1) for m in mods}) for i in range(7)]
    manifest = DatasetManifest.from_records(mods, 2, "train", records)
    masks = [[bool(bits >> i & 1) for i in range(3)] for bits in range(1, 8)]
    table = modality_stats(partition_of([shard_of(manifest, [s.id for s in records], masks)]), manifest)
    assert table.patterns == ["a", "b", "a+b", "c", "a+c", "b+c", "a+b+c"]
    counted = {(c, p): n for _, c, p, n in table.rows() if n}
    assert counted == {(0, "a"): 1, (1, "b"): 1, (0, "a+b"): 1, (1, "c"): 1, (0, "a+c"): 1, (1, "b+c"): 1, (0, "a+b+c"): 1}


def test_modality_stats_rejects_all_false_mask(manifest):
    partition = partition_of([shard_of(manifest, [manifest.ids[0], manifest.ids[5]], [(True, True), (False, False)])])
    with pytest.raises(ValueError, match=f"sample {manifest.ids[5]!r} has an all-false mask"):
        modality_stats(partition, manifest)


def test_count_table_csv(tmp_path):
    table = CountTable(patterns=["image"], counts=np.array([[[3]]]))
    path = tmp_path / "counts.csv"
    table.to_csv(path)
    assert path.read_text().splitlines() == ["client,class,pattern,count", "0,0,image,3"]
