"""Lockstep training: a group of equal-size clients trained along a client
axis must give every client exactly the bytes it gets training alone."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lockstep_reference as reference
from conftest import randomize_delta, run_config
from fedmm import client, server
from fedmm.client import ClientData, LocalTrainConfig, local_train, make_reg_context, mask_vector, round_reg_context
from fedmm.model import AdapterDelta, BaseWeights, Batch, ModelConfig, init_model, loss_and_grad
from fedmm.server import lockstep_groups, run_rounds


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
        "n": draw(st.integers(1, 9)),
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
    batches = [client_batch(gen, dims, classes, case["n"], kind) for kind in case["kinds"]]
    seeds = [case["seed"] * 7 + c for c in range(len(batches))]
    margin = case["margin"] if 2 * case["margin"] < model_cfg.depth else 0
    shared = round_reg_context(start, margin, case["gammas"])
    contexts = [reference_context(start, margin, gamma) if gamma > 0.0 else None for gamma in case["gammas"]]
    train_cfg = LocalTrainConfig(epochs=case["epochs"], batch_size=case["batch_size"], lr=0.05, warmup_ratio=0.3)

    clients = [ClientData(b, 0.0, gamma) for b, gamma in zip(batches, case["gammas"])]
    want = [reference.local_train(base, start, b, train_cfg, s, ctx) for b, s, ctx in zip(batches, seeds, contexts)]
    for _ in range(2):  # a second call on the same inputs gives the same bytes
        got = local_train(base, start, clients, train_cfg, seeds, shared)
        for (got_delta, got_trace), (want_delta, want_trace) in zip(got, want):
            assert np.array_equal(got_delta.flat, want_delta.flat)
            assert got_trace == want_trace


def test_lockstep_rejects_mixed_shard_sizes():
    gen = np.random.default_rng(0)
    base, delta = init_model(ModelConfig(modality_dims=(2, 2), hidden=4, encoder_depth=1, trunk_depth=1, class_count=2, rank=1))
    batches = [client_batch(gen, (2, 2), 2, n, "aligned") for n in (3, 4)]
    with pytest.raises(ValueError, match="one size"):
        local_train(base, delta, [ClientData(b, 0.0, 0.0) for b in batches], LocalTrainConfig(), [1, 2])


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
    monkeypatch.setattr(server, "LOCKSTEP_WIDTH", 4)
    assert lockstep_groups(sizes) == [[0, 2, 3, 6], [7, 8], [1, 5], [4]]
    monkeypatch.setattr(server, "LOCKSTEP_WIDTH", 1)
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
        monkeypatch.setattr(server, "LOCKSTEP_WIDTH", width)
        log, state, _ = run_rounds(*args)
        runs.append((log.records, state.global_delta.flat, state.first_moment, state.second_moment))
    for records, flat, first, second in runs[1:]:
        assert records == runs[0][0]
        assert np.array_equal(flat, runs[0][1])
        assert np.array_equal(first, runs[0][2]) and np.array_equal(second, runs[0][3])


@pytest.mark.parametrize("kind,reg_runs", [("cross", True), ("aligned", False)])
def test_run_rounds_reaches_reg_value_and_grad(monkeypatch, kind, reg_runs):
    calls = []
    real = client.reg_value_and_grad

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(client, "reg_value_and_grad", counted)
    run_rounds(*run_config(f"scenario.kind={kind}", "scenario.clients=6", "fl.clients_per_round=4", "fl.rounds=3",
                           "scenario.image_only_clients=3", "synth.samples_per_class=12", "synth.test_samples_per_class=5"))
    assert bool(calls) == reg_runs


def with_stack(base, modality, weight=None, bias=None):
    """base with every weight of one modality's encoder stack replaced by
    `weight` and its first layer's first bias entry by `bias`."""
    stack = [i for i, spec in enumerate(base.specs) if spec.name.startswith(f"enc{modality}.")]
    weights = [np.full_like(w, weight) if weight is not None and i in stack else w.copy() for i, w in enumerate(base.weights)]
    biases = [b.copy() for b in base.biases]
    if bias is not None:
        biases[stack[0]][0] = bias
    return BaseWeights(base.specs, weights, biases)


@pytest.mark.parametrize("with_reg", [False, True])
def test_absent_encoder_stack_is_never_read(with_reg):
    cfg = ModelConfig(modality_dims=(5, 4), hidden=6, encoder_depth=2, trunk_depth=2, class_count=3, rank=2, seed=4)
    base, delta = init_model(cfg)
    delta = randomize_delta(delta, seed=4, scale=0.3)
    # margin 1 masks in depth 1, so the absent stack's last layer carries the proximal term
    target = randomize_delta(delta, seed=5)
    ctx = make_reg_context(target, margin=1, gamma=0.7) if with_reg else None
    want_ctx = reference_context(target, margin=1, gamma=0.7) if with_reg else None
    batch = client_batch(np.random.default_rng(4), cfg.modality_dims, cfg.class_count, 7, "single")
    assert not batch.presence[1].any()

    want_loss, want_grad = reference.loss_and_grad(base, delta, batch, want_ctx)
    loss, grad = loss_and_grad(with_stack(base, 1, weight=np.nan), delta, batch, ctx)
    assert np.isfinite(loss) and np.isfinite(grad.flat).all()
    assert loss == want_loss and np.array_equal(grad.flat, want_grad.flat)

    # a nonzero bias makes the stack's output nonzero, so it must run
    biased = with_stack(base, 1, bias=0.25)
    want_loss, want_grad = reference.loss_and_grad(biased, delta, batch, want_ctx)
    loss, grad = loss_and_grad(biased, delta, batch, ctx)
    assert loss == want_loss and np.array_equal(grad.flat, want_grad.flat)
    assert np.isnan(loss_and_grad(with_stack(base, 1, weight=np.nan, bias=0.25), delta, batch, ctx)[0])
