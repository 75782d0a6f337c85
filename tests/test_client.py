import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from client_profile_reference import client_profile
from conftest import (
    count_composes,
    empty_shard,
    manual_manifest,
    partition_of,
    randomize_delta,
    reg_context,
    shard_of,
    shards,
    tiny_manifest,
    train_client,
)
from fedmm.client import (
    LocalTrainConfig,
    RegularizerConfig,
    build_train_set,
    cosine_lr,
    local_train,
    make_reg_context,
    mask_vector,
    round_reg_context,
    reg_value_and_grad,
)
from fedmm.data import SynthConfig, synth_generate
from fedmm.model import AdapterDelta, LayerSpec, ModelConfig, compose_updates, effective_weights, grouped, init_model, make_batch
from fedmm.partitioner import dirichlet_partition
from test_model import central_difference, relative_errors


# ---------- mask ----------

def test_mask_vector_middle_band():
    mask = mask_vector(8, 2)
    assert mask.tolist() == [False, False, True, True, True, True, False, False]


def test_mask_vector_zero_margin_all_on():
    assert mask_vector(5, 0).all()


def test_mask_vector_degenerate_warns():
    with pytest.warns(UserWarning, match="inert"):
        mask = mask_vector(4, 2)
    assert not mask.any()


# ---------- proximal term ----------

def one_by_one_delta(up, down, alpha=1.0):
    specs = (LayerSpec("head", 1, 1, 0),)
    return AdapterDelta(
        specs=specs,
        rank=1,
        adapter_alpha=alpha,
        flat=np.array([up, down]),
    )


def test_reg_hand_case_scalar():
    # composed update 0.2, target 0, gamma 10: value = 10 * 0.04
    delta = one_by_one_delta(0.4, 0.5)
    assert compose_updates(delta).layers[0][0, 0] == pytest.approx(0.2)
    ctx = reg_context(one_by_one_delta(0.0, 0.0), margin=0, gamma=10.0)
    value, grad = reg_value_and_grad(delta, ctx)
    assert value == pytest.approx(0.4)
    # d/dup of gamma*(s*u*d)^2 = 2*gamma*(s*u*d)*s*d
    assert grad.up[0][0, 0] == pytest.approx(2.0 * 10.0 * 0.2 * 0.5)
    assert grad.down[0][0, 0] == pytest.approx(2.0 * 10.0 * 0.2 * 0.4)


def test_reg_zero_at_target():
    delta = one_by_one_delta(0.4, 0.5)
    ctx = reg_context(delta, margin=0, gamma=5.0)
    value, grad = reg_value_and_grad(delta, ctx)
    assert value == 0.0
    assert np.array_equal(grad.flat, np.zeros(2))


def test_reg_masked_layer_contributes_nothing():
    delta = one_by_one_delta(0.4, 0.5)
    with pytest.warns(UserWarning, match="inert"):
        ctx = reg_context(one_by_one_delta(0.0, 0.0), margin=1, gamma=10.0)
    value, grad = reg_value_and_grad(delta, ctx)
    assert value == 0.0
    assert np.array_equal(grad.flat, np.zeros(2))


def test_reg_gamma_zero_contributes_nothing(tiny_model):
    _, _, delta = tiny_model
    delta = randomize_delta(delta, seed=3)
    ctx = reg_context(replace(delta, flat=np.zeros_like(delta.flat)), margin=0, gamma=0.0)
    value, grad = reg_value_and_grad(delta, ctx)
    assert value == 0.0
    assert np.array_equal(grad.flat, np.zeros_like(grad.flat))


def test_reg_gradient_matches_central_differences(tiny_model):
    _, _, delta = tiny_model
    delta = randomize_delta(delta, seed=9, scale=0.3)
    target_delta = randomize_delta(delta, seed=10, scale=0.2)
    ctx = reg_context(target_delta, margin=1, gamma=0.7)
    _, grad = reg_value_and_grad(delta, ctx)

    def fn(vec):
        value, _ = reg_value_and_grad(replace(delta, flat=vec), ctx)
        return value

    numeric = central_difference(fn, delta.flat)
    errs = relative_errors(grad.flat, numeric)
    assert errs.max() < 1e-4


def masked_in_slots(delta, margin):
    """Which of delta's parameters belong to a layer the depth mask of
    `margin` switches on."""
    mask = mask_vector(max(s.depth for s in delta.specs) + 1, margin)
    marker = replace(delta, flat=np.zeros(delta.flat.shape[-1]))
    for i, spec in enumerate(delta.specs):
        marker.up[i][...] = marker.down[i][...] = mask[spec.depth]
    return marker.flat == 1.0


def test_reg_adds_into_masked_in_slots_only(tiny_model):
    _, _, delta = tiny_model
    rows = np.stack([randomize_delta(delta, seed=s, scale=0.3).flat for s in (11, 12)])
    clients = replace(delta, flat=rows)
    ctx = replace(reg_context(randomize_delta(delta, seed=13), margin=1, gamma=0.7), gamma=np.array([0.7, 0.2]))
    inside = masked_in_slots(delta, margin=1)
    assert inside.any() and not inside.all()
    fresh_value, fresh = reg_value_and_grad(clients, ctx)
    prefill = np.random.default_rng(14).normal(size=rows.shape)
    value, grad = reg_value_and_grad(clients, ctx, replace(clients, flat=prefill.copy()))
    assert np.array_equal(value, fresh_value)
    assert np.array_equal(grad.flat[:, ~inside], prefill[:, ~inside])
    assert np.array_equal(grad.flat[:, inside], prefill[:, inside] + fresh.flat[:, inside])


def test_reg_scratch_changes_no_byte(tiny_model):
    _, base, delta = tiny_model
    delta = randomize_delta(delta, seed=15, scale=0.3)
    ctx = reg_context(randomize_delta(delta, seed=16), margin=1, gamma=0.7)
    want_value, want = reg_value_and_grad(delta, ctx)
    # NaN scratch: the term must write its slices before reading them
    scratch = grouped(base.groups, np.full(base.flat.size, np.nan)).stacks
    value, grad = reg_value_and_grad(delta, ctx, scratch=scratch)
    assert value == want_value
    assert np.array_equal(grad.flat, want.flat)


def test_bound_reg_equals_unbound_and_takes_only_its_arrays(tiny_model):
    _, base, delta = tiny_model
    rows = np.stack([randomize_delta(delta, seed=s, scale=0.3).flat for s in (17, 18)])
    clients = replace(delta, flat=rows)
    ctx = replace(reg_context(randomize_delta(delta, seed=19), margin=1, gamma=0.7), gamma=np.array([0.0, 0.4]))
    prefill = np.random.default_rng(20).normal(size=rows.shape)
    want_value, want = reg_value_and_grad(clients, ctx, replace(clients, flat=prefill.copy()))
    grad = replace(clients, flat=prefill.copy())
    scratch = grouped(base.groups, np.full((2, base.flat.size), np.nan)).stacks
    bound = ctx.bind(clients, grad, scratch)
    for _ in range(2):  # a bound context reads its views afresh on every call
        grad.flat[...] = prefill
        value, got = reg_value_and_grad(clients, bound, grad, scratch)
        assert got is grad and np.array_equal(value, want_value)
        assert np.array_equal(grad.flat, want.flat)
        clients.flat[...] = rows + 0.01
        want_value, want = reg_value_and_grad(clients, ctx, replace(clients, flat=prefill.copy()))
    for others in ((replace(clients, flat=rows.copy()), grad, scratch), (clients, None, scratch), (clients, grad, None)):
        with pytest.raises(ValueError, match="bound to"):
            reg_value_and_grad(others[0], bound, others[1], others[2])


def test_reg_at_origin_returns_zero_and_leaves_grad(tiny_model):
    _, _, delta = tiny_model
    origin = randomize_delta(delta, seed=21, scale=0.3)
    ctx = replace(reg_context(origin, margin=1, gamma=0.7), gamma=np.array([0.7, 0.2]))
    rows = np.stack([origin.flat, origin.flat])
    prefill = np.random.default_rng(22).normal(size=rows.shape)
    value, grad = reg_value_and_grad(replace(origin, flat=rows), ctx, replace(origin, flat=prefill.copy()))
    assert value == 0.0
    assert grad.flat.tobytes() == prefill.tobytes()

    # one element off the origin runs the full term
    rows[1, np.flatnonzero(masked_in_slots(origin, margin=1))[0]] += 0.05
    moved = replace(origin, flat=rows)
    value, grad = reg_value_and_grad(moved, ctx, replace(origin, flat=prefill.copy()))
    composed, target = compose_updates(moved), compose_updates(origin)
    mask = mask_vector(max(s.depth for s in origin.specs) + 1, 1)
    want = 0.2 * sum(
        np.sum((composed.layers[i][1] - target.layers[i]) ** 2) for i, s in enumerate(origin.specs) if mask[s.depth]
    )
    assert value[0] == 0.0 and value[1] > 0.0
    assert value[1] == pytest.approx(want, rel=1e-12)
    assert np.array_equal(grad.flat[0], prefill[0])
    assert not np.array_equal(grad.flat[1], prefill[1])


@pytest.fixture
def tiny_model():
    cfg = ModelConfig(
        modality_dims=(4, 3), hidden=6, encoder_depth=2, trunk_depth=2,
        class_count=3, rank=2, adapter_alpha=2.0, seed=7,
    )
    base, delta = init_model(cfg)
    return cfg, base, delta


# ---------- schedule ----------

def test_cosine_peak_and_tail():
    total, ratio, lr0 = 100, 0.1, 0.5
    warmup = math.ceil(ratio * total)
    assert cosine_lr(warmup, total, ratio, lr0) == pytest.approx(lr0)
    mid = warmup + (total - warmup) // 2
    assert cosine_lr(mid, total, ratio, lr0) == pytest.approx(lr0 / 2.0)
    assert cosine_lr(total - 1, total, ratio, lr0) < 0.01 * lr0


def test_cosine_warmup_ramp():
    lrs = [cosine_lr(s, 100, 0.1, 1.0) for s in range(10)]
    assert lrs == pytest.approx([(s + 1) / 10 for s in range(10)])


def test_cosine_no_warmup_starts_at_peak():
    assert cosine_lr(0, 50, 0.0, 1.0) == pytest.approx(1.0)


def test_cosine_full_warmup_never_decays():
    lrs = [cosine_lr(s, 10, 1.0, 1.0) for s in range(10)]
    assert lrs == pytest.approx([(s + 1) / 10 for s in range(10)])


def test_cosine_step_bounds():
    with pytest.raises(ValueError, match="outside"):
        cosine_lr(10, 10, 0.1, 1.0)
    with pytest.raises(ValueError, match="outside"):
        cosine_lr(-1, 10, 0.1, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=400),
    ratio=st.floats(min_value=0.0, max_value=1.0),
    lr0=st.floats(min_value=1e-6, max_value=10.0),
)
def test_cosine_nonnegative_peak_once(total, ratio, lr0):
    lrs = np.array([cosine_lr(s, total, ratio, lr0) for s in range(total)])
    assert (lrs >= 0).all()
    assert lrs.max() <= lr0 * (1 + 1e-12)
    # the peak value appears on one contiguous run of at most two steps
    # (the last warmup step and the first decay step can both hit lr0)
    peaks = np.flatnonzero(np.isclose(lrs, lrs.max(), rtol=1e-12, atol=0.0))
    assert len(peaks) <= 2
    assert peaks.max() - peaks.min() == len(peaks) - 1


# ---------- local training ----------

def make_setup(seed=0):
    manifest = tiny_manifest(class_count=3, per_class=12, seed=seed)
    cfg = ModelConfig(
        modality_dims=(4, 3), hidden=8, encoder_depth=1, trunk_depth=1,
        class_count=3, rank=2, adapter_alpha=2.0, seed=seed,
    )
    base, delta = init_model(cfg)
    partition = dirichlet_partition(manifest, 3, 2.0, seed=seed)
    return manifest, base, delta, partition


def test_local_train_zero_epochs_noop():
    manifest, base, delta, partition = make_setup()
    out, trace = train_client(
        base, delta, manifest, shards(partition)[0],
        LocalTrainConfig(epochs=0), RegularizerConfig(), seed=1,
    )
    assert trace == []
    assert np.array_equal(out.flat, delta.flat)


def test_local_train_deterministic_and_pure():
    manifest, base, delta, partition = make_setup()
    before = delta.flat.copy()
    cfg = LocalTrainConfig(epochs=2, batch_size=8)
    a, trace_a = train_client(base, delta, manifest, shards(partition)[0], cfg, RegularizerConfig(), seed=5)
    b, trace_b = train_client(base, delta, manifest, shards(partition)[0], cfg, RegularizerConfig(), seed=5)
    assert np.array_equal(a.flat, b.flat)
    assert trace_a == trace_b
    assert np.array_equal(delta.flat, before)


def test_local_train_empty_client_rejected():
    manifest, base, delta, _ = make_setup()
    with pytest.raises(ValueError, match="no samples"):
        train_client(base, delta, manifest, empty_shard(), LocalTrainConfig(), RegularizerConfig(), seed=1)


def test_local_train_descends_across_seeds():
    firsts, lasts = [], []
    for seed in range(3):
        manifest, base, delta, partition = make_setup(seed=seed)
        shard = max(shards(partition), key=lambda shard: len(shard[0]))
        _, trace = train_client(
            base, delta, manifest, shard,
            LocalTrainConfig(epochs=5, batch_size=8, lr=5e-3),
            RegularizerConfig(enabled=False), seed=seed,
        )
        firsts.append(trace[0])
        lasts.append(trace[-1])
    assert np.mean(lasts) < np.mean(firsts)


def test_local_train_reg_pulls_toward_global():
    # single-modality client: large gamma should keep the trained delta
    # closer to the global one than no regularizer does
    manifest, base, delta, partition = make_setup(seed=2)
    rows, _ = max(shards(partition), key=lambda shard: len(shard[0]))
    mono = rows, np.tile([True, False], (len(rows), 1))
    start = randomize_delta(delta, seed=20, scale=0.05)
    cfg = LocalTrainConfig(epochs=3, batch_size=8)
    free, _ = train_client(base, start, manifest, mono, cfg, RegularizerConfig(enabled=False), seed=3)
    tied, _ = train_client(
        base, start, manifest, mono, cfg,
        RegularizerConfig(enabled=True, gamma_max=50.0, margin=0), seed=3,
    )
    dist_free = np.linalg.norm(free.flat - start.flat)
    dist_tied = np.linalg.norm(tied.flat - start.flat)
    assert dist_tied < dist_free


def test_local_train_aligned_client_skips_reg():
    # aligned clients get gamma 0, so enabled/disabled must coincide
    manifest, base, delta, partition = make_setup(seed=4)
    shard = max(shards(partition), key=lambda shard: len(shard[0]))
    cfg = LocalTrainConfig(epochs=1, batch_size=8)
    on, trace_on = train_client(base, delta, manifest, shard, cfg, RegularizerConfig(enabled=True), seed=6)
    off, trace_off = train_client(base, delta, manifest, shard, cfg, RegularizerConfig(enabled=False), seed=6)
    assert np.array_equal(on.flat, off.flat)
    assert trace_on == trace_off


# ---------- the run's training set ----------

def test_train_set_rows_match_make_batch():
    # partial masks: client 0 keeps d whole, a without text, b's image
    # and c's text; client 1 is empty; client 2 keeps a and d image-only
    manifest = manual_manifest()
    parts = [
        shard_of(manifest, ["d", "a", "b", "c"], [(True, True), (True, False), (True, False), (False, True)]),
        empty_shard(),
        shard_of(manifest, ["a", "d"], [(True, False), (True, False)]),
    ]
    data = build_train_set(manifest, partition_of(parts), RegularizerConfig(gamma_max=0.4))
    assert data.start.tolist() == [0, 4, 4] and data.sizes.tolist() == [4, 0, 2]
    assert data.missing_rate == (3 / 8, 0.0, 1 / 2)
    assert data.gamma == (0.4 * (3 / 8), 0.0, 0.4)
    assert build_train_set(manifest, partition_of(parts), RegularizerConfig(enabled=False)).gamma == (0.0, 0.0, 0.0)
    # any (C, k) rows, client c's offset by its start, are client c's make_batch rows
    for picked, rows in (([0], [[2, 0, 3]]), ([0], [[1, 1, 0, 3, 2]]), ([0, 2], [[3, 1], [1, 0]]), ([2, 0], [[0, 1], [2, 2]])):
        rows = np.array(rows)
        got = data.batch.take(data.start[picked][:, None] + rows)
        for c, k in enumerate(picked):
            want = make_batch(manifest, parts[k][0][rows[c]], parts[k][1][rows[c]])
            for a, b in zip([*got.features, *got.presence, got.labels], [*want.features, *want.presence, want.labels]):
                assert a.dtype == b.dtype
                assert np.array_equal(a[c], b)


MODALITY_MANIFESTS = {
    m: synth_generate(SynthConfig(class_count=2, modalities=("a", "b", "c")[:m], dims=(1,) * m, samples_per_class=40))
    for m in (1, 2, 3)
}


def profiled(mask_lists, reg_cfg=RegularizerConfig()):
    """The training set of clients holding consecutive rows under these
    masks, one list of flag tuples per client; an empty list is an empty
    client."""
    width = len(next(masks for masks in mask_lists if masks)[0])
    start = np.cumsum([0, *map(len, mask_lists)])
    parts = [(np.arange(a, b), np.array(masks, dtype=bool).reshape(b - a, width)) for a, b, masks in zip(start, start[1:], mask_lists)]
    return build_train_set(MODALITY_MANIFESTS[width], partition_of(parts), reg_cfg)


def test_train_set_missing_rate_cases():
    data = profiled([[], [(True, True), (True, True)], [(True, True), (True, False)], [(True, False), (True, False)], []])
    assert data.missing_rate == (0.0, 0.0, 0.25, 0.5, 0.0)
    assert profiled([[(True, False, True), (True, False, False)]]).missing_rate == (0.5,)


def test_gamma_mapping():
    # 0 for aligned and empty clients, gamma_max for single-modality, and
    # gamma_max times the missing rate for partial missing
    aligned, partial, single = [(True, True)], [(True, True), (False, True)], [(True, False), (True, False)]
    data = profiled([[], aligned, partial, single, []], RegularizerConfig(gamma_max=0.1))
    assert data.gamma == (0.0, 0.0, 0.1 * 0.25, 0.1, 0.0)
    assert profiled([[(True, True, False), (True, False, True)]], RegularizerConfig(gamma_max=0.1)).gamma == (0.1 * (2 / 6),)
    assert profiled([partial, single], RegularizerConfig(enabled=False, gamma_max=0.1)).gamma == (0.0, 0.0)


@st.composite
def client_masks(draw):
    """Masks for 1 to 12 clients over 1 to 3 modalities. A client may be
    empty (first and last included), keep every modality, keep a
    client-wide subset, or vary its masks sample by sample within that
    subset."""
    width = draw(st.integers(1, 3))
    clients = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(0, 5))
        kept = draw(st.integers(1, 2**width - 1))
        style = draw(st.sampled_from(("whole", "client-wide", "per-sample")))
        bits = [2**width - 1] * n if style == "whole" else [kept] * n
        if style == "per-sample":
            bits = [(draw(st.integers(1, 2**width - 1)) & kept) or kept for _ in range(n)]
        clients.append([tuple(bool(b >> m & 1) for m in range(width)) for b in bits])
    if not any(clients):
        clients[-1] = [(True,) * width]
    return clients


@settings(max_examples=300, deadline=None)
@given(client_masks(), st.booleans(), st.sampled_from((0.1, 0.3, 1.0, 7.0)))
def test_train_set_profiles_match_per_client_oracle(mask_lists, enabled, gamma_max):
    data = profiled(mask_lists, RegularizerConfig(enabled=enabled, gamma_max=gamma_max))
    want = [client_profile(np.array(masks, dtype=bool), enabled, gamma_max) for masks in mask_lists]
    assert data.missing_rate == tuple(rate for rate, _ in want)
    assert data.gamma == tuple(gamma for _, gamma in want)
    # the run log dumps these: Python floats, with the oracle's JSON text
    assert json.dumps([data.missing_rate, data.gamma]) == json.dumps([[r for r, _ in want], [g for _, g in want]])


def test_train_set_read_only_and_untouched_by_training():
    manifest, base, delta, partition = make_setup()
    data = build_train_set(manifest, partition, RegularizerConfig())
    arrays = [*data.batch.features, *data.batch.presence, data.batch.labels, data.start]
    before = [a.copy() for a in arrays]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        data.batch.features[0][0, 0] = 1.0
    local_train(base, delta, data, [2, 0], LocalTrainConfig(epochs=2, batch_size=5), seeds=[4, 5])
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


def test_group_first_step_composes_nothing(monkeypatch):
    manifest, base, delta, partition = make_setup()
    data = build_train_set(manifest, partition, RegularizerConfig())
    start = randomize_delta(delta, seed=3)
    clients, seeds = [2, 0, 1], [7, 8, 9]
    weights = effective_weights(base, start)
    shapes = count_composes(monkeypatch)
    whole = LocalTrainConfig(epochs=1, batch_size=len(data.batch))  # one step per group
    alone, _ = local_train(base, start, data, clients, whole, seeds)
    assert shapes == [()]  # the global adapter, once per call
    shapes.clear()
    given, _ = local_train(base, start, data, clients, whole, seeds, global_weights=weights)
    assert shapes == []
    assert np.array_equal(given.flat, alone.flat)
    groups = len(set(data.sizes[clients].tolist()))
    local_train(base, start, data, clients, replace(whole, epochs=3), seeds, global_weights=weights)
    assert len(shapes) == 2 * groups and () not in shapes  # steps 2 and 3 of each group


def test_local_train_empty_batch_rejected():
    manifest, base, delta, _ = make_setup()
    data = build_train_set(manifest, partition_of([empty_shard()]), RegularizerConfig())
    with pytest.raises(ValueError, match="no samples"):
        local_train(base, delta, data, [0], LocalTrainConfig(), seeds=[1])


def test_reg_contexts_compose_targets_once():
    _, _, delta, _ = make_setup()
    start = randomize_delta(delta, seed=3)
    composed = compose_updates(start)
    shared = round_reg_context(start, composed, 1, [0.0, 0.3, 0.0, 0.7])
    own = make_reg_context(start, composed, 1, 0.7)
    assert [(g, span) for g, span, _ in shared.slices] == [(g, span) for g, span, _ in own.slices]
    assert all(np.array_equal(x, y) for (_, _, x), (_, _, y) in zip(shared.slices, own.slices))
    assert np.array_equal(shared.order, own.order)
    assert shared.gamma == 0.7
    assert round_reg_context(start, composed, 1, [0.0, 0.0]) is None
