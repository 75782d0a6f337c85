import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import manual_manifest, randomize_delta, tiny_manifest, train_client
from fedmm.client import (
    ClientData,
    LocalTrainConfig,
    RegularizerConfig,
    client_data,
    cosine_lr,
    gamma_for_client,
    local_train,
    make_reg_context,
    mask_vector,
    round_reg_context,
    reg_value_and_grad,
)
from fedmm.model import AdapterDelta, Batch, LayerSpec, ModelConfig, compose_updates, grouped, init_model, make_batch
from fedmm.partitioner import ClientSlot, dirichlet_partition
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


# ---------- gamma ----------

def test_gamma_mapping():
    assert gamma_for_client(0.1, "aligned", 0.0) == 0.0
    assert gamma_for_client(0.1, "single_modality", 0.5) == 0.1
    assert gamma_for_client(0.1, "partial_missing", 0.25) == pytest.approx(0.025)
    with pytest.raises(ValueError, match="kind"):
        gamma_for_client(0.1, "weird", 0.0)
    with pytest.raises(ValueError, match="missing_rate"):
        gamma_for_client(0.1, "partial_missing", 1.5)


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
    ctx = make_reg_context(one_by_one_delta(0.0, 0.0), margin=0, gamma=10.0)
    value, grad = reg_value_and_grad(delta, ctx)
    assert value == pytest.approx(0.4)
    # d/dup of gamma*(s*u*d)^2 = 2*gamma*(s*u*d)*s*d
    assert grad.up[0][0, 0] == pytest.approx(2.0 * 10.0 * 0.2 * 0.5)
    assert grad.down[0][0, 0] == pytest.approx(2.0 * 10.0 * 0.2 * 0.4)


def test_reg_zero_at_target():
    delta = one_by_one_delta(0.4, 0.5)
    ctx = make_reg_context(delta, margin=0, gamma=5.0)
    value, grad = reg_value_and_grad(delta, ctx)
    assert value == 0.0
    assert np.array_equal(grad.flat, np.zeros(2))


def test_reg_masked_layer_contributes_nothing():
    delta = one_by_one_delta(0.4, 0.5)
    with pytest.warns(UserWarning, match="inert"):
        ctx = make_reg_context(one_by_one_delta(0.0, 0.0), margin=1, gamma=10.0)
    value, grad = reg_value_and_grad(delta, ctx)
    assert value == 0.0
    assert np.array_equal(grad.flat, np.zeros(2))


def test_reg_gamma_zero_contributes_nothing(tiny_model):
    _, _, delta = tiny_model
    delta = randomize_delta(delta, seed=3)
    ctx = make_reg_context(replace(delta, flat=np.zeros_like(delta.flat)), margin=0, gamma=0.0)
    value, grad = reg_value_and_grad(delta, ctx)
    assert value == 0.0
    assert np.array_equal(grad.flat, np.zeros_like(grad.flat))


def test_reg_gradient_matches_central_differences(tiny_model):
    _, _, delta = tiny_model
    delta = randomize_delta(delta, seed=9, scale=0.3)
    target_delta = randomize_delta(delta, seed=10, scale=0.2)
    ctx = make_reg_context(target_delta, margin=1, gamma=0.7)
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
    ctx = replace(make_reg_context(randomize_delta(delta, seed=13), margin=1, gamma=0.7), gamma=np.array([0.7, 0.2]))
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
    ctx = make_reg_context(randomize_delta(delta, seed=16), margin=1, gamma=0.7)
    want_value, want = reg_value_and_grad(delta, ctx)
    # NaN scratch: the term must write its slices before reading them
    scratch = grouped(base.groups, np.full(base.flat.size, np.nan)).stacks
    value, grad = reg_value_and_grad(delta, ctx, scratch=scratch)
    assert value == want_value
    assert np.array_equal(grad.flat, want.flat)


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
        base, delta, manifest, partition.clients[0],
        LocalTrainConfig(epochs=0), RegularizerConfig(), seed=1,
    )
    assert trace == []
    assert np.array_equal(out.flat, delta.flat)


def test_local_train_deterministic_and_pure():
    manifest, base, delta, partition = make_setup()
    before = delta.flat.copy()
    cfg = LocalTrainConfig(epochs=2, batch_size=8)
    a, trace_a = train_client(base, delta, manifest, partition.clients[0], cfg, RegularizerConfig(), seed=5)
    b, trace_b = train_client(base, delta, manifest, partition.clients[0], cfg, RegularizerConfig(), seed=5)
    assert np.array_equal(a.flat, b.flat)
    assert trace_a == trace_b
    assert np.array_equal(delta.flat, before)


def test_local_train_empty_client_rejected():
    manifest, base, delta, _ = make_setup()
    with pytest.raises(ValueError, match="no samples"):
        train_client(base, delta, manifest, ClientSlot(), LocalTrainConfig(), RegularizerConfig(), seed=1)


def test_local_train_descends_across_seeds():
    firsts, lasts = [], []
    for seed in range(3):
        manifest, base, delta, partition = make_setup(seed=seed)
        slot = max(partition.clients, key=len)
        _, trace = train_client(
            base, delta, manifest, slot,
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
    slot = max(partition.clients, key=len)
    mono = ClientSlot(
        sample_ids=list(slot.sample_ids),
        masks=[(True, False)] * len(slot),
    )
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
    slot = max(partition.clients, key=len)
    cfg = LocalTrainConfig(epochs=1, batch_size=8)
    on, trace_on = train_client(base, delta, manifest, slot, cfg, RegularizerConfig(enabled=True), seed=6)
    off, trace_off = train_client(base, delta, manifest, slot, cfg, RegularizerConfig(enabled=False), seed=6)
    assert np.array_equal(on.flat, off.flat)
    assert trace_on == trace_off


# ---------- per-run client tensors ----------

def test_client_batch_row_take_matches_make_batch():
    # a partial-mask client: a drops text, b keeps image, c keeps text
    manifest = manual_manifest()
    slot = ClientSlot(["d", "a", "b", "c"], [(True, True), (True, False), (True, False), (False, True)])
    client = client_data(manifest, slot, RegularizerConfig(gamma_max=0.4))
    assert client.missing_rate == 3 / 8
    assert client.gamma == gamma_for_client(0.4, "partial_missing", 3 / 8)
    # the shard as a lockstep group of one, with a client axis
    shard = Batch([f[None] for f in client.batch.features], [p[None] for p in client.batch.presence], client.batch.labels[None])
    for rows in (np.array([2, 0, 3]), np.array([1, 1, 0, 3, 2]), np.arange(4)):
        got = shard.take(rows[None])
        want = make_batch(manifest, [slot.sample_ids[i] for i in rows], [slot.masks[i] for i in rows])
        for a, b in zip([*got.features, *got.presence, got.labels], [*want.features, *want.presence, want.labels]):
            assert a.dtype == b.dtype
            assert np.array_equal(a[0], b)


def test_client_batch_read_only_and_untouched_by_training():
    manifest, base, delta, partition = make_setup()
    client = client_data(manifest, partition.clients[0], RegularizerConfig())
    arrays = [*client.batch.features, *client.batch.presence, client.batch.labels]
    before = [a.copy() for a in arrays]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        client.batch.features[0][0, 0] = 1.0
    local_train(base, delta, [client], LocalTrainConfig(epochs=2, batch_size=5), seeds=[4])
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


def test_local_train_empty_batch_rejected():
    manifest, base, delta, _ = make_setup()
    with pytest.raises(ValueError, match="no samples"):
        local_train(base, delta, [ClientData(make_batch(manifest, []), 0.0, 0.0)], LocalTrainConfig(), seeds=[1])


def test_reg_contexts_compose_targets_once():
    _, _, delta, _ = make_setup()
    start = randomize_delta(delta, seed=3)
    shared = round_reg_context(start, 1, [0.0, 0.3, 0.0, 0.7])
    own = make_reg_context(start, 1, 0.7)
    assert [(g, span) for g, span, _ in shared.slices] == [(g, span) for g, span, _ in own.slices]
    assert all(np.array_equal(x, y) for (_, _, x), (_, _, y) in zip(shared.slices, own.slices))
    assert np.array_equal(shared.order, own.order)
    assert shared.gamma == 0.7
    assert round_reg_context(start, 1, [0.0, 0.0]) is None
