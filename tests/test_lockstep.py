"""Lockstep training: a round's clients, trained in groups of equal shard
size along a client axis, must give every client exactly the bytes it
gets training alone."""

from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lockstep_reference as reference
from conftest import randomize_delta, reg_context, run_config
from fedmm import client, server
from fedmm.client import (
    LocalTrainConfig,
    TrainSet,
    local_train,
    lockstep_groups,
    mask_vector,
    round_reg_context,
)
from fedmm.model import AdapterDelta, BaseWeights, Batch, ModelConfig, compose_updates, effective_weights, init_model, loss_and_grad
from fedmm.server import run_rounds


def client_batch(gen, dims, classes, n, kind):
    """n rows of one client; `kind` picks its presence pattern: every
    modality, only modality 0, or a random nonempty subset per row."""
    presence = np.ones((len(dims), n))
    if len(dims) > 1 and kind == "single":
        presence[1:] = 0.0
    elif len(dims) > 1 and kind == "partial":
        presence = (gen.random((len(dims), n)) < 0.5).astype(float)
        presence[gen.integers(0, len(dims), n), np.arange(n)] = 1.0
    return Batch(
        features=[gen.normal(0.0, 1.0, (n, d)) * presence[m][:, None] for m, d in enumerate(dims)],
        presence=list(presence),
        labels=gen.integers(0, classes, n),
    )


def train_set(batches, gammas):
    """The clients' batches back to back as one TrainSet."""
    joined = Batch(
        features=[np.concatenate(arrays) for arrays in zip(*(b.features for b in batches))],
        presence=[np.concatenate(arrays) for arrays in zip(*(b.presence for b in batches))],
        labels=np.concatenate([b.labels for b in batches]),
    )
    start = np.cumsum([0, *(len(b) for b in batches)])[:-1]
    present = np.array([[int(p.sum()) for p in b.presence] for b in batches], dtype=np.intp).reshape(len(batches), -1)
    return TrainSet(joined.freeze(), start, (0.0,) * len(batches), tuple(gammas), present)


def reference_context(target, margin, gamma):
    """The proximal inputs the frozen reference reads: targets composed by
    its own compose_delta, the depth mask and gamma."""
    targets = [reference.compose_delta(target, i) for i in range(len(target.specs))]
    return SimpleNamespace(targets=targets, mask=mask_vector(max(s.depth for s in target.specs) + 1, margin), gamma=gamma)


@st.composite
def lockstep_cases(draw):
    width = draw(st.integers(1, 6))
    return {
        "dims": draw(st.sampled_from([(3,), (2, 3), (3, 2, 2)])),
        "hidden": draw(st.integers(3, 6)),
        "enc": draw(st.integers(0, 2)),
        "trunk": draw(st.integers(0, 2)),
        "classes": draw(st.integers(2, 4)),
        "rank": draw(st.integers(1, 2)),
        "sizes": draw(st.lists(st.integers(1, 5), min_size=width, max_size=width)),
        "cap": draw(st.integers(1, 4)),
        "batch_size": draw(st.integers(1, 5)),
        "epochs": draw(st.integers(0, 3)),
        "kinds": draw(st.lists(st.sampled_from(["aligned", "partial", "single"]), min_size=width, max_size=width)),
        "gammas": draw(st.lists(st.sampled_from([0.0, 0.3, 2.0]), min_size=width, max_size=width)),
        "margin": draw(st.integers(0, 1)),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=60, deadline=None)
@given(lockstep_cases())
def test_lockstep_equals_each_client_alone(case):
    dims, classes = case["dims"], case["classes"]
    model_cfg = ModelConfig(
        modality_dims=dims, hidden=case["hidden"], encoder_depth=case["enc"], trunk_depth=case["trunk"],
        class_count=classes, rank=case["rank"], adapter_alpha=2.0, seed=case["seed"],
    )
    base, delta = init_model(model_cfg)
    start = randomize_delta(delta, seed=case["seed"], scale=0.3)
    gen = np.random.default_rng(case["seed"])
    batches = [client_batch(gen, dims, classes, n, kind) for n, kind in zip(case["sizes"], case["kinds"])]
    seeds = [case["seed"] * 7 + c for c in range(len(batches))]
    margin = case["margin"] if 2 * case["margin"] < model_cfg.depth else 0
    train_cfg = LocalTrainConfig(epochs=case["epochs"], batch_size=case["batch_size"], lr=0.05, warmup_ratio=0.3)
    want = reference_runs(base, start, batches, case["gammas"], margin, train_cfg, seeds)
    for _ in range(2):  # a second call on the same inputs gives the same bytes
        # groups of at most `cap` clients, so some calls train groups of several widths
        with mock.patch.object(client, "LOCKSTEP_WIDTH", case["cap"]):
            assert_same_bytes(lockstep_run(base, start, batches, case["gammas"], margin, train_cfg, seeds), want)


def reference_runs(base, start, batches, gammas, margin, train_cfg, seeds):
    """Each client trained alone by the frozen reference: (delta, trace)."""
    contexts = [reference_context(start, margin, gamma) if gamma > 0.0 else None for gamma in gammas]
    return [reference.local_train(base, start, b, train_cfg, s, ctx) for b, s, ctx in zip(batches, seeds, contexts)]


def lockstep_run(base, start, batches, gammas, margin, train_cfg, seeds):
    """One local_train call over every client, as run_rounds makes it."""
    shared = round_reg_context(start, compose_updates(start), margin, gammas)
    return local_train(base, start, train_set(batches, gammas), list(range(len(batches))), train_cfg, seeds, shared)


def assert_same_bytes(got, want):
    trained, traces = got
    assert trained.flat.shape == (len(want), want[0][0].flat.size)
    for row, got_trace, (want_delta, want_trace) in zip(trained.flat, traces, want):
        assert np.array_equal(row, want_delta.flat)
        assert got_trace == want_trace


def spy(monkeypatch, name):
    """Record the arguments of every call of client's module global `name`."""
    calls = []
    real = getattr(client, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(client, name, recorded)
    return calls


BOUND_CFG = dict(modality_dims=(3, 2), hidden=5, encoder_depth=2, trunk_depth=2, class_count=3, rank=2, seed=21)


def test_group_holding_a_modality_in_some_rows_equals_reference(monkeypatch):
    cfg = ModelConfig(**BOUND_CFG)
    base, delta = init_model(cfg)
    start = randomize_delta(delta, seed=21, scale=0.3)
    gen = np.random.default_rng(21)
    # clients 0 and 1 (one group) hold modality 1 in one row between them,
    # so two of each epoch's three minibatches lack it; client 2 (a group
    # of its own) never holds it
    batches = [client_batch(gen, cfg.modality_dims, cfg.class_count, n, "single") for n in (6, 6, 4)]
    batches[0].presence[1][2] = 1.0
    batches[0].features[1][2] = gen.normal(0.0, 1.0, cfg.modality_dims[1])
    gammas, seeds = [0.5, 0.0, 2.0], [3, 4, 5]
    train_cfg = LocalTrainConfig(epochs=2, batch_size=2, lr=0.05, warmup_ratio=0.3)
    calls = spy(monkeypatch, "loss_and_grad")
    got = lockstep_run(base, start, batches, gammas, 1, train_cfg, seeds)
    assert_same_bytes(got, reference_runs(base, start, batches, gammas, 1, train_cfg, seeds))
    minibatches = [args[2] for args in calls]
    held = [b for b in minibatches if b.absent == (False, False)]
    assert len(held) == 6 and sum(not b.presence[1].any() for b in held) == 4
    assert [b.absent for b in minibatches[6:]] == [(False, True)] * 4


def test_multi_epoch_group_mixing_gammas_equals_reference(monkeypatch):
    cfg = ModelConfig(**BOUND_CFG)
    base, delta = init_model(cfg)
    start = randomize_delta(delta, seed=22, scale=0.3)
    gen = np.random.default_rng(22)
    batches = [client_batch(gen, cfg.modality_dims, cfg.class_count, 5, kind) for kind in ("aligned", "partial", "single")]
    gammas, seeds = [0.0, 0.4, 2.0], [7, 8, 9]
    train_cfg = LocalTrainConfig(epochs=3, batch_size=2, lr=0.05, warmup_ratio=0.3)
    calls = spy(monkeypatch, "reg_value_and_grad")
    got = lockstep_run(base, start, batches, gammas, 1, train_cfg, seeds)
    assert_same_bytes(got, reference_runs(base, start, batches, gammas, 1, train_cfg, seeds))
    contexts = [args[1] for args in calls]
    # one group of 9 steps: the first on an unbound context, the rest on one bound at the second
    assert len(contexts) == 9 and contexts[0].bound is None
    assert all(ctx is contexts[1] and ctx.bound is not None for ctx in contexts[1:])


@pytest.mark.parametrize("rank,alpha,scale", [(2, 2.0, 1.0), (1, 2.0, 2.0)])
def test_adapter_scale_equals_reference(rank, alpha, scale):
    cfg = ModelConfig(**{**BOUND_CFG, "rank": rank, "adapter_alpha": alpha})
    base, delta = init_model(cfg)
    start = randomize_delta(delta, seed=23, scale=0.3)
    assert start.scale == scale
    gen = np.random.default_rng(23)
    batches = [client_batch(gen, cfg.modality_dims, cfg.class_count, n, kind) for n, kind in ((4, "partial"), (4, "single"), (3, "aligned"))]
    gammas, seeds = [0.3, 1.5, 0.0], [1, 2, 3]
    train_cfg = LocalTrainConfig(epochs=2, batch_size=3, lr=0.05, warmup_ratio=0.3)
    got = lockstep_run(base, start, batches, gammas, 1, train_cfg, seeds)
    assert_same_bytes(got, reference_runs(base, start, batches, gammas, 1, train_cfg, seeds))


def test_stacked_delta_views_carry_client_axis(tiny_model):
    _, _, delta = tiny_model
    rows = np.stack([randomize_delta(delta, seed=s).flat for s in range(3)])
    stacked = replace(delta, flat=rows)
    for c in range(3):
        alone = replace(delta, flat=rows[c].copy())
        for i in range(len(delta.specs)):
            assert stacked.up[i].shape == (3, *alone.up[i].shape)
            assert np.shares_memory(stacked.up[i], rows) and np.shares_memory(stacked.down[i], rows)
            assert np.array_equal(stacked.up[i][c], alone.up[i])
            assert np.array_equal(stacked.down[i][c], alone.down[i])
    with pytest.raises(ValueError, match="length"):
        AdapterDelta(delta.specs, delta.rank, delta.adapter_alpha, rows[:, :-1].copy())


def test_lockstep_groups_by_shard_size(monkeypatch):
    sizes = [3, 5, 3, 3, 4, 5, 3, 3, 3]
    monkeypatch.setattr(client, "LOCKSTEP_WIDTH", 4)
    assert lockstep_groups(sizes) == [[0, 2, 3, 6], [7, 8], [1, 5], [4]]
    monkeypatch.setattr(client, "LOCKSTEP_WIDTH", 1)
    assert lockstep_groups(sizes) == [[i] for i in (0, 2, 3, 6, 7, 8, 1, 5, 4)]


HYBRID = (
    "scenario.kind=hybrid", "scenario.clients=24", "fl.clients_per_round=12", "fl.rounds=4",
    "synth.samples_per_class=12", "synth.test_samples_per_class=10", "local.batch_size=2",
    "model.hidden=8", "model.encoder_depth=1", "model.trunk_depth=2", "reg.margin=1",
)


def test_run_rounds_same_bytes_at_any_lockstep_width(monkeypatch):
    args = run_config(*HYBRID)
    sizes = args[2].sizes()
    assert len(set(sizes)) < len(sizes)  # some clients share a shard size
    runs = []
    for width in (1, 3, 12):
        monkeypatch.setattr(client, "LOCKSTEP_WIDTH", width)
        log, state, _ = run_rounds(*args)
        runs.append((log.records, state.global_delta.flat, state.first_moment, state.second_moment))
    for records, flat, first, second in runs[1:]:
        assert records == runs[0][0]
        assert np.array_equal(flat, runs[0][1])
        assert np.array_equal(first, runs[0][2]) and np.array_equal(second, runs[0][3])


@pytest.mark.parametrize("kind,reg_runs", [("cross", True), ("aligned", False)])
def test_run_rounds_reaches_reg_value_and_grad(monkeypatch, kind, reg_runs):
    calls = spy(monkeypatch, "reg_value_and_grad")
    run_rounds(*run_config(f"scenario.kind={kind}", "scenario.clients=6", "fl.clients_per_round=4", "fl.rounds=3",
                           "scenario.image_only_clients=3", "synth.samples_per_class=12", "synth.test_samples_per_class=5"))
    assert bool(calls) == reg_runs


def test_reg_calls_per_step_and_contexts_per_round(monkeypatch):
    """The counts the benchmark traces: one proximal call per training
    step in every round that has a context, one context per round."""
    steps, reg_calls, contexts = spy(monkeypatch, "loss_and_grad"), spy(monkeypatch, "reg_value_and_grad"), spy(monkeypatch, "make_reg_context")
    rounds = []
    real = server.local_train

    def train(*args):
        before = len(steps), len(reg_calls)
        result = real(*args)
        rounds.append((args[6] is not None, len(steps) - before[0], len(reg_calls) - before[1]))
        return result

    monkeypatch.setattr(server, "local_train", train)
    run_rounds(*run_config("scenario.kind=cross", "scenario.clients=6", "fl.clients_per_round=4", "fl.rounds=3",
                           "scenario.image_only_clients=3", "synth.samples_per_class=12", "synth.test_samples_per_class=5",
                           "local.epochs=2", "local.batch_size=4"))
    assert len(rounds) == 3 and len(contexts) == 3
    for has_context, round_steps, round_reg_calls in rounds:
        assert has_context and round_steps > 4 and round_reg_calls == round_steps


def with_stack(base, modality, weight=None, bias=None):
    """base with every weight of one modality's encoder stack replaced by
    `weight` and its first layer's first bias entry by `bias`."""
    stack = [i for i, spec in enumerate(base.specs) if spec.name.startswith(f"enc{modality}.")]
    weights = [np.full_like(w, weight) if weight is not None and i in stack else w.copy() for i, w in enumerate(base.weights)]
    biases = [b.copy() for b in base.biases]
    if bias is not None:
        biases[stack[0]][0] = bias
    return BaseWeights(base.specs, weights, biases)


def loss_and_reg_grad(base, delta, batch, ctx):
    """One step's objective as local_train forms it: the cross-entropy,
    then the proximal term, when ctx is given, on the spent weights."""
    weights = effective_weights(base, delta)
    loss, grad = loss_and_grad(base, delta, batch, weights=weights)
    if ctx is not None:
        loss = loss + client.reg_value_and_grad(delta, ctx, grad, weights.stacks)[0]
    return loss, grad


@pytest.mark.parametrize("with_reg", [False, True])
def test_absent_encoder_stack_is_never_read(with_reg):
    cfg = ModelConfig(modality_dims=(5, 4), hidden=6, encoder_depth=2, trunk_depth=2, class_count=3, rank=2, seed=4)
    base, delta = init_model(cfg)
    delta = randomize_delta(delta, seed=4, scale=0.3)
    # margin 1 masks in depth 1, so the absent stack's last layer carries the proximal term
    target = randomize_delta(delta, seed=5)
    ctx = reg_context(target, margin=1, gamma=0.7) if with_reg else None
    want_ctx = reference_context(target, margin=1, gamma=0.7) if with_reg else None
    batch = client_batch(np.random.default_rng(4), cfg.modality_dims, cfg.class_count, 7, "single")
    assert not batch.presence[1].any()

    want_loss, want_grad = reference.loss_and_grad(base, delta, batch, want_ctx)
    loss, grad = loss_and_reg_grad(with_stack(base, 1, weight=np.nan), delta, batch, ctx)
    assert np.isfinite(loss) and np.isfinite(grad.flat).all()
    assert loss == want_loss and np.array_equal(grad.flat, want_grad.flat)

    # a nonzero bias makes the stack's output nonzero, so it must run
    biased = with_stack(base, 1, bias=0.25)
    want_loss, want_grad = reference.loss_and_grad(biased, delta, batch, want_ctx)
    loss, grad = loss_and_reg_grad(biased, delta, batch, ctx)
    assert loss == want_loss and np.array_equal(grad.flat, want_grad.flat)
    assert np.isnan(loss_and_reg_grad(with_stack(base, 1, weight=np.nan, bias=0.25), delta, batch, ctx)[0])
