from dataclasses import replace

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lockstep_reference as layout_reference
import make_batch_reference as batch_reference
from conftest import manual_manifest, manual_records, randomize_delta, tiny_manifest
from fedmm.data import DatasetManifest, ModalityDescriptor, Sample, SynthConfig, synth_generate
from fedmm.metrics import EvalSet
from fedmm.model import (
    AdapterDelta,
    BaseWeights,
    Batch,
    LayerSpec,
    ModelConfig,
    adapter_size,
    compose_updates,
    effective_weights,
    forward,
    forward_scratch,
    init_model,
    layer_specs,
    load_checkpoint,
    loss_and_grad,
    make_batch,
    save_checkpoint,
)
from fedmm.tensorio import read_tensor_file, write_tensor_file


def central_difference(fn, vec, h=1e-5):
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        left = vec.copy()
        right = vec.copy()
        left[i] -= h
        right[i] += h
        grad[i] = (fn(right) - fn(left)) / (2.0 * h)
    return grad


def relative_errors(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-10)
    return np.abs(analytic - numeric) / denom


# ---------- structure ----------

def test_layer_specs_depths():
    cfg = ModelConfig(modality_dims=(4, 3), hidden=6, encoder_depth=3, trunk_depth=4, class_count=3, rank=2)
    specs = layer_specs(cfg)
    assert cfg.depth == 8
    by_name = {s.name: s for s in specs}
    assert [by_name[f"enc0.{e}"].depth for e in range(3)] == [0, 1, 2]
    assert [by_name[f"enc1.{e}"].depth for e in range(3)] == [0, 1, 2]
    assert [by_name[f"trunk.{t}"].depth for t in range(4)] == [3, 4, 5, 6]
    assert by_name["head"].depth == 7
    assert by_name["enc0.0"].fan_in == 5  # features plus presence bit
    assert by_name["trunk.0"].fan_in == 12


def test_rank_too_large_rejected():
    with pytest.raises(ValueError, match="rank 3 exceeds"):
        ModelConfig(modality_dims=(2, 2), hidden=4, encoder_depth=1, trunk_depth=1, class_count=2, rank=3)


def test_init_deterministic_and_zero_composition(tiny_model):
    cfg, base, delta = tiny_model
    base2, delta2 = init_model(cfg)
    for w1, w2 in zip(base.weights, base2.weights):
        assert np.array_equal(w1, w2)
    for i in range(len(delta.up)):
        assert np.array_equal(delta.up[i], np.zeros_like(delta.up[i]))
        assert np.array_equal(delta.down[i], delta2.down[i])
        assert np.array_equal(compose_updates(delta).layers[i], np.zeros((delta.specs[i].fan_out, delta.specs[i].fan_in)))


def test_base_weights_frozen(tiny_model):
    _, base, _ = tiny_model
    with pytest.raises(ValueError):
        base.weights[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        base.biases[0][0] = 1.0


# ---------- composition ----------

def test_compose_rank_one_hand_product():
    spec = (LayerSpec("head", 2, 2, 0),)
    delta = AdapterDelta(
        specs=spec,
        rank=1,
        adapter_alpha=1.0,
        flat=np.array([2.0, 0.0, 3.0, 4.0]),
    )
    assert np.array_equal(compose_updates(delta).layers[0], np.array([[6.0, 8.0], [0.0, 0.0]]))


def test_compose_alpha_scaling(tiny_model):
    _, _, delta = tiny_model
    delta = randomize_delta(delta, seed=1)
    doubled = AdapterDelta(
        specs=delta.specs,
        rank=delta.rank,
        adapter_alpha=2.0 * delta.adapter_alpha,
        flat=delta.flat.copy(),
    )
    for i in range(len(delta.up)):
        assert np.allclose(2.0 * compose_updates(delta).layers[i], compose_updates(doubled).layers[i])


def test_compose_linear_in_up(tiny_model):
    _, _, delta = tiny_model
    delta = randomize_delta(delta, seed=2)
    scaled = replace(delta, flat=delta.flat.copy())
    for u in scaled.up:
        u *= 3.0
    for i in range(len(delta.up)):
        assert np.allclose(3.0 * compose_updates(delta).layers[i], compose_updates(scaled).layers[i])


def test_factor_views_share_flat_vector(tiny_model):
    _, _, delta = tiny_model
    delta = randomize_delta(delta, seed=3)
    before = delta.flat.copy()
    delta.up[1][0, 0] += 1.0
    changed = np.flatnonzero(delta.flat != before)
    assert changed.size == 1 and delta.flat[changed[0]] == before[changed[0]] + 1.0
    assert changed[0] == delta.up[0].size + delta.down[0].size  # layer 0's group holds only it: up, then down
    with pytest.raises(TypeError):
        delta.up[1] = np.zeros_like(delta.up[1])
    with pytest.raises(ValueError, match="length"):
        replace(delta, flat=delta.flat[:-1])


@st.composite
def _model_configs(draw):
    """A valid config: its rank, at most 3, is at most its smallest fan."""
    cfg = ModelConfig(
        modality_dims=tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))),
        hidden=draw(st.integers(1, 6)),
        encoder_depth=draw(st.integers(0, 3)),
        trunk_depth=draw(st.integers(0, 3)),
        class_count=draw(st.integers(2, 4)),
        rank=1,
    )
    fan = min(min(s.fan_in, s.fan_out) for s in layer_specs(cfg))
    return replace(cfg, rank=draw(st.integers(1, min(3, fan))))


@settings(max_examples=100, deadline=None)
@given(cfg=_model_configs(), clients=st.sampled_from([None, 1, 3]))
def test_layer_views_tile_the_flat_vector_once(cfg, clients):
    specs = layer_specs(cfg)
    size = adapter_size(specs, cfg.rank)
    flat = np.arange(size, dtype=np.float64)
    delta = AdapterDelta(specs, cfg.rank, 1.0, flat if clients is None else np.tile(flat, (clients, 1)))
    lead = () if clients is None else (clients,)
    seen = []
    for spec, up, down in zip(specs, delta.up, delta.down):
        assert up.shape == (*lead, spec.fan_out, cfg.rank) and down.shape == (*lead, cfg.rank, spec.fan_in)
        assert np.shares_memory(up, delta.flat) and np.shares_memory(down, delta.flat)
        for factor in (up, down):
            rows = factor.reshape(*lead, -1)
            if clients is not None:  # every client's row holds the same positions
                assert (rows == rows[:1]).all()
                rows = rows[0]
            seen.extend(rows.astype(int).tolist())
    assert sorted(seen) == list(range(size))


# ---------- forward ----------

def test_single_affine_hand_computation():
    # no encoders, no trunk: logits = [features0, bit0, features1, bit1] @ W.T
    cfg = ModelConfig(modality_dims=(1, 1), hidden=4, encoder_depth=0, trunk_depth=0, class_count=2, rank=1, adapter_alpha=1.0, seed=0)
    specs = layer_specs(cfg)
    assert len(specs) == 1 and specs[0].fan_in == 4
    w = np.arange(8.0).reshape(2, 4)
    base = BaseWeights(specs=specs, weights=[w])
    delta = AdapterDelta(specs=specs, rank=1, adapter_alpha=1.0, flat=np.zeros(6))
    batch = Batch(
        features=[np.array([[2.0]]), np.array([[3.0]])],
        presence=[np.array([1.0]), np.array([1.0])],
        labels=np.array([0]),
    )
    logits = forward(base, delta, batch)
    x = np.array([2.0, 1.0, 3.0, 1.0])
    assert np.allclose(logits[0], w @ x)


def expected_layout(specs, modality_count):
    """Encoder stacks and trunk by the frozen reference's counting rule."""
    per_mod = layout_reference.encoder_depth(specs, modality_count)
    stacks = tuple(range(m * per_mod, (m + 1) * per_mod) for m in range(modality_count)) if per_mod else ()
    return stacks, range(modality_count * per_mod, len(specs) - 1)


def test_layout_equals_reference_counting_rule(tmp_path):
    for modalities in (1, 2, 3):
        for enc in range(4):
            for trunk in range(4):
                cfg = ModelConfig(modality_dims=(3, 4, 5)[:modalities], hidden=6, encoder_depth=enc, trunk_depth=trunk, rank=2)
                base, delta = init_model(cfg)
                path = tmp_path / f"model-{modalities}-{enc}-{trunk}.bin"
                save_checkpoint(path, base, delta)
                want = expected_layout(base.specs, modalities)
                for built in (base, load_checkpoint(path)[0]):
                    assert (built.encoders, built.trunk) == want, (modalities, enc, trunk)
                    assert built.trunk.stop == len(built.specs) - 1


def test_bases_hold_write_protected_zero_biases(tiny_model, tmp_path):
    _, base, delta = tiny_model  # built by init_model
    path = tmp_path / "model.bin"
    save_checkpoint(path, base, delta)
    for built in (base, load_checkpoint(path)[0]):
        assert [b.shape for b in built.biases] == [(s.fan_out,) for s in built.specs]
        for bias in built.biases:
            assert bias.tobytes() == bytes(bias.nbytes) and not bias.flags.writeable


def scanned_absent(batch):
    return tuple(not p.any() and not f.any() for f, p in zip(batch.features, batch.presence))


def test_every_batch_has_absent_flags():
    gen = np.random.default_rng(11)
    mods = tuple(ModalityDescriptor(f"m{i}", 2) for i in range(3))
    records = [Sample(f"s{i}", i % 3, {m.name: gen.normal(size=2) for m in mods}) for i in range(12)]
    manifest = DatasetManifest.from_records(mods, 3, "train", records)
    for _ in range(20):
        rows = gen.permutation(12)[: gen.integers(1, 13)]
        masks = gen.random((len(rows), 3)) < 0.5
        masks[:, 0] = True
        masks[:, 1] = False  # off in every row
        batch = make_batch(manifest, rows, masks)
        assert batch.absent == scanned_absent(batch) == (False, True, not masks[:, 2].any())
    batch = make_batch(manifest, range(12), [(True, False, i % 2 == 0) for i in range(12)])
    assert batch.absent == (False, True, False)
    hand = Batch(features=[f.copy() for f in batch.features], presence=[p.copy() for p in batch.presence], labels=batch.labels)
    assert hand.absent == (False, True, False)
    # take and split carry the flags they are given, even ones no scan would give
    rows = np.arange(12).reshape(2, 6)
    assert batch.take(rows).absent == (False, True, False)
    taken = batch.take(rows, (False, True, True))
    assert taken.absent == (False, True, True)
    assert [part.absent for part in taken.split(4)] == [(False, True, True)] * 2


def test_zero_adapter_equals_base_and_adapters_shift(tiny_model):
    cfg, base, delta = tiny_model
    manifest = tiny_manifest()
    batch = make_batch(manifest, range(5))
    zeroed = replace(delta, flat=np.zeros_like(delta.flat))
    base_logits = forward(base, zeroed, batch)
    init_logits = forward(base, delta, batch)  # up is zero at init
    assert np.array_equal(base_logits, init_logits)
    shifted = randomize_delta(delta, seed=4)
    assert not np.allclose(forward(base, shifted, batch), base_logits)


def test_forward_row_permutation(tiny_model):
    _, base, delta = tiny_model
    delta = randomize_delta(delta, seed=5)
    manifest = tiny_manifest()
    logits = forward(base, delta, make_batch(manifest, range(8)))
    perm = [5, 2, 7, 0, 1, 6, 3, 4]
    logits_perm = forward(base, delta, make_batch(manifest, perm))
    assert np.allclose(logits[perm], logits_perm)


def test_absent_modality_features_ignored():
    manifest = manual_manifest()
    cfg = ModelConfig(modality_dims=(2, 2), hidden=4, encoder_depth=1, trunk_depth=1, class_count=2, rank=2, adapter_alpha=2.0, seed=3)
    base, delta = init_model(cfg)
    delta = randomize_delta(delta, seed=6)
    # sample b has image only; its assembled batch is zero-filled with bit 0
    batch = make_batch(manifest, [manifest.index_of("b")], None)
    assert batch.presence[1][0] == 0.0
    assert np.array_equal(batch.features[1][0], np.zeros(2))
    # masking a modality off makes stored feature values irrelevant
    _, samples = manual_records()
    samples[3].features["text"] = np.array([-7.0, 4.0])
    other = manual_manifest(samples)
    mask = [(True, False)]
    a = forward(base, delta, make_batch(manifest, [3], mask))
    b = forward(base, delta, make_batch(other, [3], mask))
    assert np.array_equal(a, b)


def test_forward_with_precomposed_weights(tiny_model):
    _, base, delta = tiny_model
    delta = randomize_delta(delta, seed=8)
    manifest = tiny_manifest(class_count=3, dims=(4, 3), per_class=4, seed=2)
    batch = make_batch(manifest, range(len(manifest)))
    assert np.array_equal(forward(base, delta, batch, effective_weights(base, delta)), forward(base, delta, batch))


@pytest.mark.parametrize(
    "dims, enc, trunk",
    [((16, 16), 3, 4), ((3,), 2, 4), ((5, 4), 0, 2), ((5, 16, 9), 2, 2)],
    ids=["default", "one_modality", "no_encoder", "three_unequal"],
)
@pytest.mark.parametrize("chunk", [7, 512])
def test_forward_with_scratch_is_bit_exact(dims, enc, trunk, chunk):
    # 600 rows: the last chunk is shorter than the scratch in both sizes
    base, delta = init_model(ModelConfig(modality_dims=dims, encoder_depth=enc, trunk_depth=trunk, seed=3))
    delta = randomize_delta(delta, seed=1)
    synth = SynthConfig(modalities=tuple(f"m{i}" for i in range(len(dims))), dims=dims, samples_per_class=150, seed=3)
    chunks = EvalSet(synth_generate(synth, split="test"), chunk=chunk).chunks
    assert len(chunks[-1]) < chunk
    weights = effective_weights(base, delta)
    scratch = forward_scratch(base, chunk)
    for batch in chunks:
        assert np.array_equal(forward(base, delta, batch, weights, scratch), forward(base, delta, batch, weights))


def test_make_batch_rejects_absent_request():
    manifest = manual_manifest()
    rows = [manifest.index_of(sid) for sid in ("a", "b", "c")]
    with pytest.raises(ValueError, match="^sample 'b': mask requests absent modality 'text'$"):
        make_batch(manifest, rows, [(True, True), (True, True), (True, True)])
    with pytest.raises(ValueError, match="^sample 'c': mask requests absent modality 'image'$"):
        make_batch(manifest, rows, [(True, True), (True, False), (True, True)])
    with pytest.raises(ValueError, match="^sample 'a': empty effective mask$"):
        make_batch(manifest, rows, [(False, False), (True, True), (True, True)])


@st.composite
def _batch_requests(draw):
    """A manifest of 1-3 modalities whose samples lack some, then ids in a
    random order (repeats allowed, now and then an unknown one) and either
    no masks or one per id: a nonempty subset of the sample's modalities,
    any flags at all, or its modalities plus any others."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    mods = tuple(ModalityDescriptor(f"m{i}", d) for i, d in enumerate(dims))
    records = []
    for i in range(draw(st.integers(1, 6))):
        present = draw(st.lists(st.sampled_from(mods), min_size=1, max_size=len(mods), unique=True))
        features = {m.name: np.array(draw(st.lists(st.floats(-3, 3), min_size=m.dim, max_size=m.dim))) for m in present}
        records.append(Sample(f"s{i}", draw(st.integers(0, 2)), features))
    manifest = DatasetManifest.from_records(mods, 3, "train", records)
    ids = []
    for _ in range(draw(st.integers(1, 8))):
        ids.append("ghost" if draw(st.integers(0, 29)) == 7 else draw(st.sampled_from(records)).id)
    if draw(st.booleans()):
        return manifest, ids, None
    masks = []
    for sid in ids:
        flags = draw(st.lists(st.booleans(), min_size=len(mods), max_size=len(mods)))
        kind = "any" if sid == "ghost" else draw(st.sampled_from(["subset", "any", "superset"]))
        if kind != "any":
            has = manifest.by_id(sid).presence(mods)
            flags = [f or h if kind == "superset" else f and h for f, h in zip(flags, has)]
            flags[has.index(True)] |= not any(flags)
        masks.append(tuple(flags))
    return manifest, ids, masks


@settings(max_examples=400, deadline=None)
@given(request=_batch_requests())
def test_make_batch_matches_per_row_reference(request):
    """The column gather equals the frozen per-row assembly bit for bit
    (a -0.0 where the reference has +0.0 fails), or raises its error."""
    def verdict(assemble):
        try:
            return assemble(*request)
        except Exception as err:  # the type and message are the verdict
            return type(err), str(err)

    def by_rows(manifest, ids, masks):
        """make_batch on the ids' rows, each looked up with index_of; as
        in the reference, an unknown id fails only once the rows before
        it have passed."""
        rows = []
        for sid in ids:
            try:
                rows.append(manifest.index_of(sid))
            except ValueError:
                make_batch(manifest, rows, None if masks is None else masks[: len(rows)])
                raise
        return make_batch(manifest, rows, masks)

    got, want = verdict(by_rows), verdict(batch_reference.make_batch)
    if not isinstance(want, Batch):
        assert got == want
        return
    for g, w in zip([*got.features, *got.presence, got.labels], [*want.features, *want.presence, want.labels], strict=True):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("masks", [None, []])
def test_make_batch_of_no_ids_matches_reference(masks):
    manifest = manual_manifest()
    got, want = make_batch(manifest, [], masks), batch_reference.make_batch(manifest, [], masks)
    for g, w in zip([*got.features, *got.presence, got.labels], [*want.features, *want.presence, want.labels], strict=True):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)


# ---------- loss ----------

def test_uniform_logits_loss_is_log_class_count():
    cfg = ModelConfig(modality_dims=(2, 2), hidden=3, encoder_depth=1, trunk_depth=1, class_count=4, rank=1, adapter_alpha=1.0, seed=0)
    specs = layer_specs(cfg)
    base = BaseWeights(
        specs=specs,
        weights=[np.zeros((s.fan_out, s.fan_in)) for s in specs],
    )
    delta = AdapterDelta(
        specs=specs,
        rank=1,
        adapter_alpha=1.0,
        flat=np.zeros(sum(s.fan_out + s.fan_in for s in specs)),
    )
    batch = Batch(
        features=[np.ones((4, 2)), np.ones((4, 2))],
        presence=[np.ones(4), np.ones(4)],
        labels=np.arange(4),
    )
    loss, _ = loss_and_grad(base, delta, batch)
    assert abs(loss - np.log(4)) < 1e-6


def test_batch_duplication_keeps_loss_and_grad(tiny_model):
    _, base, delta = tiny_model
    delta = randomize_delta(delta, seed=7)
    manifest = tiny_manifest()
    rows = [0, 1, 2, 3]
    loss1, grad1 = loss_and_grad(base, delta, make_batch(manifest, rows))
    loss2, grad2 = loss_and_grad(base, delta, make_batch(manifest, rows + rows))
    assert abs(loss1 - loss2) < 1e-12
    assert np.allclose(grad1.flat, grad2.flat)


@pytest.mark.parametrize(
    "dims,hidden,enc,trunk,classes,rank",
    [
        ((3, 2), 4, 2, 2, 3, 2),
        ((2, 2), 3, 1, 0, 2, 1),
        ((2, 3), 4, 0, 1, 4, 2),
        ((2, 2), 3, 0, 0, 2, 1),
        ((2, 2, 2), 3, 1, 1, 3, 1),
        ((3,), 4, 2, 1, 3, 2),
        ((3,), 4, 1, 0, 2, 1),
    ],
)
def test_gradients_match_central_differences(dims, hidden, enc, trunk, classes, rank):
    cfg = ModelConfig(
        modality_dims=dims,
        hidden=hidden,
        encoder_depth=enc,
        trunk_depth=trunk,
        class_count=classes,
        rank=rank,
        adapter_alpha=1.5,
        seed=11,
    )
    base, delta = init_model(cfg)
    delta = randomize_delta(delta, seed=13, scale=0.2)
    gen = np.random.Generator(np.random.Philox(key=99))
    n = 6
    batch = Batch(
        features=[gen.normal(0, 1, (n, d)) for d in dims],
        presence=[(gen.random(n) < 0.8).astype(float) for _ in dims],
        labels=gen.integers(0, classes, n),
    )
    # every sample keeps at least one modality
    for row in range(n):
        if all(batch.presence[m][row] == 0.0 for m in range(len(dims))):
            batch.presence[0][row] = 1.0
    for m in range(len(dims)):
        batch.features[m] *= batch.presence[m][:, None]

    _, grad = loss_and_grad(base, delta, batch)

    def fn(vec):
        loss, _ = loss_and_grad(base, replace(delta, flat=vec), batch)
        return loss

    numeric = central_difference(fn, delta.flat)
    errs = relative_errors(grad.flat, numeric)
    assert errs.max() < 1e-4


# ---------- persistence ----------

def test_checkpoint_roundtrip_bit_exact(tmp_path, tiny_model):
    _, base, delta = tiny_model
    delta = randomize_delta(delta, seed=8)
    p1 = tmp_path / "model1.bin"
    p2 = tmp_path / "model2.bin"
    save_checkpoint(p1, base, delta)
    base2, delta2 = load_checkpoint(p1)
    save_checkpoint(p2, base2, delta2)
    assert p1.read_bytes() == p2.read_bytes()
    for i in range(len(base.specs)):
        assert np.array_equal(base.weights[i], base2.weights[i])
        assert np.array_equal(delta.down[i], delta2.down[i])
    assert base2.specs == base.specs
    assert not base2.weights[0].flags.writeable


def test_checkpoint_rejects_misshapen_factor(tmp_path, tiny_model):
    _, base, delta = tiny_model
    path = tmp_path / "model.bin"
    save_checkpoint(path, base, delta)
    meta, arrays = read_tensor_file(path)
    name = f"{base.specs[0].name}.up"
    arrays[name] = arrays[name].T.copy()  # same size, wrong shape
    write_tensor_file(path, meta, list(arrays.items()))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("alpha", [True, "4", -4.0, 0.0, 0, None])
def test_checkpoint_rejects_bad_adapter_alpha(tmp_path, tiny_model, alpha):
    # 0 would zero every composed update, a negative value flip them
    _, base, delta = tiny_model
    path = tmp_path / "model.bin"
    save_checkpoint(path, base, delta)
    meta, arrays = read_tensor_file(path)
    write_tensor_file(path, {**meta, "adapter_alpha": alpha}, list(arrays.items()))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: header key 'adapter_alpha'"):
        load_checkpoint(path)


def test_checkpoint_loads_int_adapter_alpha(tmp_path, tiny_model):
    _, base, delta = tiny_model
    path = tmp_path / "model.bin"
    save_checkpoint(path, base, delta)
    meta, arrays = read_tensor_file(path)
    write_tensor_file(path, {**meta, "adapter_alpha": 3}, list(arrays.items()))
    _, loaded = load_checkpoint(path)
    assert loaded.adapter_alpha == 3.0 and type(loaded.adapter_alpha) is float


def write_raw_tensor_file(path, header, payload):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


@pytest.mark.parametrize("shape", [[2.5], [True, 2], ["3"], [-1, -2], [0, -1], [-1, 2], 3, None])
def test_read_tensor_file_rejects_bad_shape(tmp_path, shape):
    path = tmp_path / "bad.bin"
    write_raw_tensor_file(path, {"arrays": [{"name": "w", "shape": shape}]}, bytes(16))
    with pytest.raises(ValueError, match=r"bad\.bin: array 'w' has shape"):
        read_tensor_file(path)


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b"", id="empty-file"),
        pytest.param(b"\xff" + json.dumps({"arrays": []}).encode("utf-8") + b"\n", id="0xff-first-byte"),
        pytest.param(b'{"kind": "model", "arr', id="truncated-header-line"),
        pytest.param(b"\n" + bytes(8), id="blank-header-line"),
    ],
)
def test_read_tensor_file_names_file_for_undecodable_header(tmp_path, raw):
    path = tmp_path / "bad.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: header line is not UTF-8 JSON: "):
        read_tensor_file(path)


def test_read_tensor_file_rejects_overlong_shape(tmp_path):
    path = tmp_path / "big.bin"
    write_raw_tensor_file(path, {"arrays": [{"name": "w", "shape": [2 ** 40, 2 ** 40]}]}, bytes(16))
    with pytest.raises(ValueError, match="truncated payload at array 'w'"):
        read_tensor_file(path)


_json_scalar = st.one_of(
    st.integers(-3, 4), st.booleans(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=2), st.none()
)
_dims = st.lists(st.integers(0, 3), max_size=3)
_entry = st.fixed_dictionaries(
    {
        "name": st.one_of(st.sampled_from(["a", "b", "c"]), _json_scalar),
        "shape": st.one_of(_dims, _dims, st.lists(st.one_of(st.integers(0, 3), _json_scalar), max_size=3), _json_scalar),
    }
)
_header = st.one_of(
    st.fixed_dictionaries({"arrays": st.lists(_entry, max_size=3)}, optional={"kind": st.text(max_size=3)}),
    st.fixed_dictionaries({"arrays": st.lists(st.one_of(_entry, _json_scalar), max_size=3)}),
    st.recursive(_json_scalar, lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=4),
)


@st.composite
def _tensor_files(draw):
    """A header and a payload sized, most of the time, to what the header's
    integer dimensions ask for."""
    header = draw(_header)
    entries = header.get("arrays") if isinstance(header, dict) else None
    wanted = sum(
        math.prod(d for d in entry["shape"] if isinstance(d, int))
        for entry in (entries if isinstance(entries, list) else [])
        if isinstance(entry, dict) and isinstance(entry["shape"], list)
    )
    count = draw(st.sampled_from([wanted, wanted, wanted + 1, wanted - 1]))
    payload = np.arange(max(count, 0), dtype="<f8").tobytes() + draw(st.sampled_from([b"", b"", b"xyz"]))
    return header, draw(st.one_of(st.just(payload), st.binary(max_size=40)))


@settings(max_examples=200, deadline=None)
@given(case=_tensor_files())
def test_read_tensor_file_rejects_or_round_trips(tmp_path_factory, case):
    header, payload = case
    path = tmp_path_factory.mktemp("tensorio") / "t.bin"
    write_raw_tensor_file(path, header, payload)
    try:
        meta, arrays = read_tensor_file(path)
    except ValueError:
        return
    assert meta == {k: v for k, v in header.items() if k != "arrays"}
    assert [(name, arr.shape) for name, arr in arrays.items()] == [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
    again = path.with_name("again.bin")
    write_tensor_file(again, meta, list(arrays.items()))
    assert again.read_bytes().split(b"\n", 1)[1] == payload
    meta2, arrays2 = read_tensor_file(again)
    assert meta2 == meta
    assert {k: v.tobytes() for k, v in arrays2.items()} == {k: v.tobytes() for k, v in arrays.items()}
