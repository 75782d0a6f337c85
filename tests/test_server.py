import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import count_composes, empty_shard, partition_of, randomize_delta, round_robin_partition, run_config, shards, tiny_manifest, train_client
from fedmm import rng, server
from fedmm.client import LocalTrainConfig, RegularizerConfig
from fedmm.metrics import EvalSet, evaluate
from fedmm.model import ModelConfig, init_model, layer_specs, load_checkpoint, loss_and_grad, make_batch, save_checkpoint
from fedmm.partitioner import dirichlet_partition
from fedmm.server import (
    AGGREGATOR_KINDS,
    BETA1,
    BETA2,
    DEFAULT_SERVER_LR,
    MOMENTUM,
    TAU,
    FLRunConfig,
    RunLog,
    SERVER_STATE_BUFFERS,
    ServerState,
    init_server_state,
    local_baseline,
    load_server_state,
    pseudo_gradient,
    run_rounds,
    sample_clients,
    save_server_state,
    server_step,
)
from fedmm.tensorio import read_tensor_file, write_tensor_file


def scalar_oracle(kind, deltas, lr, beta1=0.9, beta2=0.99, tau=1e-3, momentum=0.9):
    """Plain-python recurrences for one coordinate, mirroring server_step."""
    w = m = v = buf = 0.0
    trail = []
    for d in map(float, deltas):
        if kind == "plain_avg":
            w += lr * d
        elif kind == "avgm":
            buf = momentum * buf + d
            w += lr * buf
        elif kind == "adagrad":
            v += d * d
            w += lr * d / (math.sqrt(v) + tau)
        elif kind == "adam":
            m = beta1 * m + (1 - beta1) * d
            v = beta2 * v + (1 - beta2) * d * d
            w += lr * m / (math.sqrt(v) + tau)
        elif kind == "yogi":
            m = beta1 * m + (1 - beta1) * d
            sign = 1.0 if v > d * d else (-1.0 if v < d * d else 0.0)
            v = v - (1 - beta2) * d * d * sign
            w += lr * m / (math.sqrt(v) + tau)
        trail.append(w)
    return trail


def one_param_state(kind, lr=None):
    cfg = ModelConfig(
        modality_dims=(1,), hidden=1, encoder_depth=0, trunk_depth=0,
        class_count=2, rank=1, adapter_alpha=1.0, seed=0,
    )
    _, delta = init_model(cfg)
    return init_server_state(kind, replace(delta, flat=np.zeros_like(delta.flat)), lr=lr), delta


# ---------- sampling ----------

def test_sample_all_when_m_equals_k():
    assert sample_clients([3, 1, 2], 3, round_idx=1, seed=0) == [0, 1, 2]


def test_sample_deterministic_and_sorted():
    a = sample_clients([5] * 10, 2, round_idx=7, seed=3)
    b = sample_clients([5] * 10, 2, round_idx=7, seed=3)
    assert a == b == sorted(a)
    assert len(set(a)) == 2


def test_sample_skips_empty_clients():
    for r in range(50):
        picked = sample_clients([4, 0, 4, 0, 4], 2, round_idx=r, seed=1)
        assert set(picked) <= {0, 2, 4}


def test_sample_too_few_nonempty():
    with pytest.raises(ValueError, match="nonempty"):
        sample_clients([4, 0, 0], 2, round_idx=0, seed=0)


@pytest.mark.parametrize("per_round", [0, -1])
def test_fl_config_rejects_sampling_no_client(per_round):
    with pytest.raises(ValueError, match="clients_per_round must be >= 1"):
        FLRunConfig(clients_per_round=per_round)


def test_sample_frequency_uniform():
    counts = np.zeros(10)
    rounds = 10_000
    for r in range(rounds):
        for k in sample_clients([1] * 10, 2, round_idx=r, seed=11):
            counts[k] += 1
    freqs = counts / rounds
    assert np.abs(freqs - 0.2).max() <= 0.02


# ---------- pseudo gradient ----------

def stacked(*deltas):
    """The clients' deltas as one delta with a (K, P) client axis, as
    local_train returns them."""
    return replace(deltas[0], flat=np.stack([d.flat for d in deltas]))


def test_pseudo_gradient_single_client(tiny_delta):
    g = randomize_delta(tiny_delta, seed=1)
    w = randomize_delta(tiny_delta, seed=2)
    out = pseudo_gradient(stacked(w), [5], g)
    assert np.allclose(out.flat, w.flat - g.flat)


def test_pseudo_gradient_symmetry_cancels(tiny_delta):
    g = randomize_delta(tiny_delta, seed=3)
    d = randomize_delta(replace(tiny_delta, flat=np.zeros_like(tiny_delta.flat)), seed=4)
    plus = replace(g, flat=g.flat + d.flat)
    minus = replace(g, flat=g.flat - d.flat)
    out = pseudo_gradient(stacked(plus, minus), [7, 7], g)
    assert np.allclose(out.flat, 0.0, atol=1e-12)


def test_pseudo_gradient_weighted_hand_case(tiny_delta):
    g = replace(tiny_delta, flat=np.zeros_like(tiny_delta.flat))
    four = replace(g, flat=np.full_like(g.flat, 4.0))
    zero = replace(g, flat=np.zeros_like(g.flat))
    out = pseudo_gradient(stacked(four, zero), [1, 3], g)
    assert np.allclose(out.flat, 1.0)


def test_pseudo_gradient_zero_total_size(tiny_delta):
    with pytest.raises(ValueError, match="positive"):
        pseudo_gradient(stacked(tiny_delta), [0], tiny_delta)


@pytest.fixture
def tiny_delta():
    cfg = ModelConfig(
        modality_dims=(3, 2), hidden=4, encoder_depth=1, trunk_depth=1,
        class_count=2, rank=2, adapter_alpha=2.0, seed=5,
    )
    _, delta = init_model(cfg)
    return delta


# ---------- server step ----------

@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_zero_pseudo_gradient_keeps_weights(kind):
    state, delta = one_param_state(kind)
    after = server_step(state, replace(delta, flat=np.zeros_like(delta.flat)))
    assert np.array_equal(after.global_delta.flat, state.global_delta.flat)
    assert after.round == 1


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_server_step_pure(kind):
    state, delta = one_param_state(kind)
    step = replace(delta, flat=np.full(delta.flat.size, 0.25))
    before = state.global_delta.flat.copy()
    a = server_step(state, step)
    b = server_step(state, step)
    assert np.array_equal(a.global_delta.flat, b.global_delta.flat)
    assert np.array_equal(state.global_delta.flat, before)
    assert state.round == 0


def test_adagrad_two_step_hand_case():
    state, delta = one_param_state("adagrad", lr=1.0)
    n = delta.flat.size
    s1 = server_step(state, replace(delta, flat=np.full(n, 0.3)))
    assert np.allclose(s1.global_delta.flat, 0.3 / (0.3 + 0.001), atol=1e-15)
    s2 = server_step(s1, replace(delta, flat=np.full(n, 0.4)))
    want = 0.3 / (0.3 + 0.001) + 0.4 / (0.5 + 0.001)
    assert np.allclose(s2.global_delta.flat, want, atol=1e-15)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_hundred_step_scalar_recurrence(kind):
    gen = np.random.default_rng(17)
    deltas = gen.normal(scale=0.5, size=100)
    state, proto = one_param_state(kind)
    n = proto.flat.size
    got = []
    for d in deltas:
        state = server_step(state, replace(proto, flat=np.full(n, d)))
        got.append(state.global_delta.flat[0])
    want = scalar_oracle(kind, deltas, lr=DEFAULT_SERVER_LR[kind])
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_plain_avg_server_lr_scales_the_step():
    # FedAvg with a server learning rate: half the lr, half the move
    moves = {}
    for lr in (0.5, 1.0):
        state, proto = one_param_state("plain_avg", lr=lr)
        step = replace(proto, flat=np.linspace(-1.0, 1.0, proto.flat.size))
        moves[lr] = server_step(state, step).global_delta.flat - state.global_delta.flat
    assert np.any(moves[1.0])
    assert np.array_equal(moves[0.5], 0.5 * moves[1.0])


def test_yogi_tracks_adam_on_balanced_sequence():
    # squared step equal to half the running second moment keeps
    # sign(v - d^2) positive and makes the two recurrences coincide
    adam, proto = one_param_state("adam")
    yogi, _ = one_param_state("yogi")
    n = proto.flat.size
    v0 = np.ones(n)
    adam = replace(adam, second_moment=v0.copy())
    yogi = replace(yogi, second_moment=v0.copy())
    for _ in range(100):
        d = math.sqrt(yogi.second_moment[0] / 2.0)
        assert yogi.second_moment[0] - d * d > 0
        step = replace(proto, flat=np.full(n, d))
        adam = server_step(adam, step)
        yogi = server_step(yogi, step)
    assert np.allclose(adam.second_moment, yogi.second_moment, rtol=0, atol=1e-12)
    assert np.allclose(
        adam.global_delta.flat, yogi.global_delta.flat, rtol=0, atol=1e-12
    )


def test_yogi_and_adam_diverge_in_general():
    adam, proto = one_param_state("adam")
    yogi, _ = one_param_state("yogi")
    n = proto.flat.size
    gen = np.random.default_rng(23)
    for _ in range(20):
        step = replace(proto, flat=np.full(n, gen.normal(scale=0.5)))
        adam = server_step(adam, step)
        yogi = server_step(yogi, step)
    assert not np.allclose(adam.second_moment, yogi.second_moment, atol=1e-12)


def test_adagrad_second_moment_monotone():
    state, proto = one_param_state("adagrad")
    n = proto.flat.size
    gen = np.random.default_rng(29)
    prev = state.second_moment.copy()
    for _ in range(50):
        state = server_step(state, replace(proto, flat=gen.normal(size=n)))
        assert (state.second_moment >= prev).all()
        prev = state.second_moment.copy()


def test_plain_avg_matches_centralized_descent():
    # every client takes one full-batch plain gradient step; averaging the
    # resulting deltas by sample count must equal one step on the pooled data
    manifest = tiny_manifest(class_count=2, per_class=8, seed=6)
    cfg = ModelConfig(
        modality_dims=(4, 3), hidden=5, encoder_depth=1, trunk_depth=1,
        class_count=2, rank=2, adapter_alpha=2.0, seed=6,
    )
    base, delta = init_model(cfg)
    delta = randomize_delta(delta, seed=7)
    partition = round_robin_partition(manifest, 2)
    lr = 0.05

    client_deltas, sizes = [], []
    for rows, masks in shards(partition):
        batch = make_batch(manifest, rows, masks)
        _, grad = loss_and_grad(base, delta, batch)
        client_deltas.append(replace(delta, flat=delta.flat - lr * grad.flat))
        sizes.append(len(rows))

    state = init_server_state("plain_avg", delta)
    state = server_step(state, pseudo_gradient(stacked(*client_deltas), sizes, delta))

    pooled = make_batch(manifest, partition.rows, partition.masks)
    _, pooled_grad = loss_and_grad(base, delta, pooled)
    want = delta.flat - lr * pooled_grad.flat
    assert np.allclose(state.global_delta.flat, want, atol=1e-12)


# ---------- round loop ----------

def run_setup(seed=0, clients=3, class_count=3):
    train = tiny_manifest(class_count=class_count, per_class=12, split="train", seed=seed)
    test = tiny_manifest(class_count=class_count, per_class=6, split="test", seed=seed)
    model_cfg = ModelConfig(
        modality_dims=(4, 3), hidden=6, encoder_depth=1, trunk_depth=1,
        class_count=class_count, rank=2, adapter_alpha=2.0, seed=seed,
    )
    partition = dirichlet_partition(train, clients, 2.0, seed=seed)
    return model_cfg, partition, train, EvalSet(test)


def test_run_rounds_single_client_composition():
    model_cfg, partition, train, test = run_setup(seed=8)
    cfg = FLRunConfig(
        rounds=1, clients_per_round=1, aggregator="plain_avg",
        local=LocalTrainConfig(epochs=1, batch_size=8), eval_every=1, seed=8,
    )
    log, state, base = run_rounds(cfg, model_cfg, partition, train, test)
    picked = log.records[0]["clients"][0]

    _, delta0 = init_model(model_cfg)
    want, _ = train_client(
        base, delta0, train, shards(partition)[picked],
        cfg.local, cfg.reg, seed=rng.seed_for(cfg.seed, "local", 1, picked),
    )
    assert np.array_equal(state.global_delta.flat, want.flat)


def test_run_rounds_composes_each_global_adapter_once(monkeypatch):
    # the proximal term runs (hybrid clients), every round is scored, and
    # groups take several steps, so every reader of the global adapter is live
    args = run_config(
        "scenario.kind=hybrid", "scenario.clients=8", "fl.clients_per_round=4", "fl.rounds=3", "fl.eval_every=1",
        "synth.samples_per_class=12", "synth.test_samples_per_class=5", "local.batch_size=4", "reg.margin=1",
    )
    shapes = count_composes(monkeypatch)
    log, _, _ = run_rounds(*args)
    assert all(rec["eval"] is not None for rec in log.records)
    assert any(gamma > 0 for rec in log.records for gamma in rec["gamma"].values())
    assert shapes.count(()) == 3 + 1
    assert len(shapes) > 3 + 1


def test_run_rounds_names_first_non_finite_client(monkeypatch):
    model_cfg, _, train, test = run_setup(seed=9)
    partition = round_robin_partition(train, 3)
    cfg = FLRunConfig(rounds=1, clients_per_round=3, local=LocalTrainConfig(epochs=1, batch_size=8), seed=9)
    real = server.local_train

    def second_goes_nan(*args, **kwargs):
        trained, traces = real(*args, **kwargs)
        trained.flat[1, 0] = np.nan
        traces[2][0] = math.inf
        return trained, traces

    monkeypatch.setattr(server, "local_train", second_goes_nan)
    picked = sample_clients(partition.sizes(), 3, 1, cfg.seed)
    with pytest.raises(ValueError, match=f"^round 1, client {picked[1]}: training loss or adapter is not finite"):
        run_rounds(cfg, model_cfg, partition, train, test)


def test_runlog_write_rejects_non_finite(tmp_path):
    path = tmp_path / "runlog.jsonl"
    with pytest.raises(ValueError):
        RunLog(records=[{"round": 1, "client_loss": {"0": [float("inf")]}}]).write(path)
    assert not path.exists()


def test_run_rounds_log_schema_and_cadence():
    model_cfg, partition, train, test = run_setup(seed=9)
    cfg = FLRunConfig(
        rounds=5, clients_per_round=2, aggregator="adam",
        local=LocalTrainConfig(epochs=1, batch_size=8), eval_every=2, seed=9,
    )
    log, state, _ = run_rounds(cfg, model_cfg, partition, train, test)
    assert state.round == 5
    assert [rec["round"] for rec in log.records] == [1, 2, 3, 4, 5]
    for rec in log.records:
        assert set(rec) == {"round", "clients", "n_k", "beta", "gamma", "client_loss", "eval"}
        evaluated = rec["round"] % cfg.eval_every == 0 or rec["round"] == cfg.rounds
        assert (rec["eval"] is not None) == evaluated
        for cid in rec["clients"]:
            assert rec["n_k"][str(cid)] == partition.sizes()[cid]
    assert log.final_eval() is not None


def test_run_rounds_rerun_identical_bytes(tmp_path):
    model_cfg, partition, train, test = run_setup(seed=10)
    cfg = FLRunConfig(
        rounds=3, clients_per_round=2, aggregator="yogi",
        local=LocalTrainConfig(epochs=1, batch_size=8), eval_every=2, seed=10,
    )
    paths = []
    for name in ("a", "b"):
        log, state, _ = run_rounds(cfg, model_cfg, partition, train, test)
        log_path = tmp_path / f"runlog_{name}.jsonl"
        state_path = tmp_path / f"state_{name}.bin"
        log.write(log_path)
        save_server_state(state_path, state)
        paths.append((log_path, state_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_run_rounds_timings_are_sidecar_only():
    model_cfg, partition, train, test = run_setup(seed=11)
    cfg = FLRunConfig(
        rounds=2, clients_per_round=1, aggregator="plain_avg",
        local=LocalTrainConfig(epochs=1, batch_size=8), seed=11,
    )
    timings = []
    log, _, _ = run_rounds(cfg, model_cfg, partition, train, test, timings=timings)
    assert len(timings) == 2
    assert all(t >= 0 for t in timings)
    assert all("wall_ms" not in rec for rec in log.records)


def test_server_state_checkpoint_round_trip(tmp_path):
    model_cfg, partition, train, test = run_setup(seed=12)
    cfg = FLRunConfig(
        rounds=2, clients_per_round=2, aggregator="adam",
        local=LocalTrainConfig(epochs=1, batch_size=8), seed=12,
    )
    _, state, _ = run_rounds(cfg, model_cfg, partition, train, test)
    path = tmp_path / "state.bin"
    save_server_state(path, state)
    loaded = load_server_state(path)
    assert loaded.kind == state.kind
    assert loaded.round == state.round
    assert loaded.lr == state.lr
    assert np.array_equal(loaded.global_delta.flat, state.global_delta.flat)
    assert np.array_equal(loaded.first_moment, state.first_moment)
    assert np.array_equal(loaded.second_moment, state.second_moment)
    assert np.array_equal(loaded.momentum_buf, state.momentum_buf)
    second = tmp_path / "state2.bin"
    save_server_state(second, loaded)
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_server_state_round_trips_every_field(tmp_path, tiny_delta, kind):
    # distinct non-default values, so a field the checkpoint drops, or
    # reads under another field's name, fails
    gen = np.random.default_rng(3)
    width = tiny_delta.flat.size
    state = replace(
        init_server_state(kind, randomize_delta(tiny_delta, seed=3), lr=0.37),
        first_moment=gen.normal(size=width),
        second_moment=gen.random(width),
        momentum_buf=gen.normal(size=width),
        round=17,
    )
    path = tmp_path / "state.bin"
    save_server_state(path, state)
    loaded = load_server_state(path)
    for f in fields(ServerState):
        want, got = getattr(state, f.name), getattr(loaded, f.name)
        if f.name == "global_delta":
            assert (got.specs, got.rank, got.adapter_alpha) == (want.specs, want.rank, want.adapter_alpha)
            assert np.array_equal(got.flat, want.flat)
        elif isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            assert got == want and type(got) is type(want), f.name
    second = tmp_path / "state2.bin"
    save_server_state(second, loaded)
    assert path.read_bytes() == second.read_bytes()


def rewrite_tensor_file(path, edit):
    meta, arrays = read_tensor_file(path)
    edit(meta, arrays)
    write_tensor_file(path, meta, list(arrays.items()))


def test_server_state_writes_moments_in_layer_order(tmp_path, tiny_delta):
    # moments whose per-layer views read 0, 1, ..., P - 1, up then down, layer by layer
    size = tiny_delta.flat.size
    moments = replace(tiny_delta, flat=np.empty(size))
    start = 0
    for up, down in zip(moments.up, moments.down):
        for factor in (up, down):
            factor[...] = np.arange(start, start + factor.size).reshape(factor.shape)
            start += factor.size
    state = replace(
        init_server_state("yogi", tiny_delta),
        first_moment=moments.flat, second_moment=2.0 * moments.flat, momentum_buf=3.0 * moments.flat,
    )
    path = tmp_path / "server_state.bin"
    save_server_state(path, state)
    _, arrays = read_tensor_file(path)
    for name, factor in (("first_moment", 1.0), ("second_moment", 2.0), ("momentum_buf", 3.0)):
        assert np.array_equal(arrays[name], factor * np.arange(size))
    loaded = load_server_state(path)
    for name in ("first_moment", "second_moment", "momentum_buf"):
        assert np.array_equal(getattr(loaded, name), getattr(state, name))
    assert np.array_equal(loaded.global_delta.flat, state.global_delta.flat)


def test_init_server_state_rejects_unknown_kind(tiny_delta):
    # with load_server_state's check, this is what makes server_step's kinds exhaustive
    with pytest.raises(ValueError, match=f"^kind must be one of {re.escape(str(AGGREGATOR_KINDS))}, got 'sgd'$"):
        init_server_state("sgd", tiny_delta)


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan")])
def test_init_server_state_rejects_lr_not_positive(tiny_delta, lr):
    with pytest.raises(ValueError, match=f"^lr must be > 0, got {lr}$"):
        init_server_state("adam", tiny_delta, lr=lr)


def assert_header_value_rejected(path, tiny_delta, key, value, asks):
    save_server_state(path, init_server_state("adam", tiny_delta))
    rewrite_tensor_file(path, lambda meta, arrays: meta.update({key: value}))
    want = f"{path}: header key {key!r} must {asks}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        load_server_state(path)


CONSTANTS = {"beta1": BETA1, "beta2": BETA2, "tau": TAU, "momentum": MOMENTUM}


@pytest.mark.parametrize("key,value", [("lr", 0.0), ("lr", -5.0), ("lr", 0), ("tau", 0.0), ("tau", -1.0), ("tau", -1)])
def test_load_server_state_rejects_rate_not_positive(tmp_path, tiny_delta, key, value):
    # tau is a constant: the header must hold TAU itself
    asks = "be > 0" if key == "lr" else f"be {TAU!r}"
    assert_header_value_rejected(tmp_path / "state.bin", tiny_delta, key, value, asks)


@pytest.mark.parametrize(
    "key,value",
    [("beta1", 2.0), ("beta1", 1), ("beta2", -0.5), ("beta2", 1.5), ("momentum", 1.0), ("momentum", -0.1)],
)
def test_load_server_state_rejects_decay_outside_unit_interval(tmp_path, tiny_delta, key, value):
    assert_header_value_rejected(tmp_path / "state.bin", tiny_delta, key, value, f"be {CONSTANTS[key]!r}")


@pytest.mark.parametrize("key,value", [("beta1", 0.8), ("beta2", 0.5), ("tau", 2e-3), ("momentum", 0.55)])
def test_load_server_state_rejects_constant_other_than_server_step_uses(tmp_path, tiny_delta, key, value):
    # values a range rule would admit; a run's config.resolved cannot
    # state them, so a resumed run could not say what it continued under
    assert_header_value_rejected(tmp_path / "state.bin", tiny_delta, key, value, f"be {CONSTANTS[key]!r}")


def test_load_server_state_rejects_unknown_aggregator(tmp_path, tiny_delta):
    path = tmp_path / "state.bin"
    save_server_state(path, init_server_state("adam", tiny_delta))
    rewrite_tensor_file(path, lambda meta, arrays: meta.update(aggregator="sgd"))
    with pytest.raises(ValueError, match="aggregator"):
        load_server_state(path)


@pytest.mark.parametrize("name", ["first_moment", "second_moment", "momentum_buf"])
def test_load_server_state_rejects_moment_width(tmp_path, tiny_delta, name):
    path = tmp_path / "state.bin"
    save_server_state(path, init_server_state("yogi", tiny_delta))
    rewrite_tensor_file(path, lambda meta, arrays: arrays.update({name: np.zeros(1)}))
    with pytest.raises(ValueError, match=name):
        load_server_state(path)


@pytest.mark.parametrize(
    "key,value",
    [
        ("round", 2.5),
        ("round", True),
        ("round", -1),
        ("round", "2"),
        ("lr", "0.1"),
        ("lr", True),
        ("beta1", False),
        ("beta2", "0.99"),
        ("tau", None),
        ("momentum", [0.9]),
    ],
)
def test_load_server_state_rejects_cast_scalar(tmp_path, tiny_delta, key, value):
    path = tmp_path / "state.bin"
    save_server_state(path, init_server_state("adam", tiny_delta))
    rewrite_tensor_file(path, lambda meta, arrays: meta.update({key: value}))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: header key {re.escape(repr(key))}"):
        load_server_state(path)


@pytest.mark.parametrize("alpha", [True, "4", -4.0, 0.0, 0, None])
def test_load_server_state_rejects_bad_adapter_alpha(tmp_path, tiny_delta, alpha):
    path = tmp_path / "state.bin"
    save_server_state(path, init_server_state("adam", tiny_delta))
    rewrite_tensor_file(path, lambda meta, arrays: meta.update(adapter_alpha=alpha))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: header key 'adapter_alpha'"):
        load_server_state(path)


def saved_checkpoint(tmp_path, kind, cfg=ModelConfig(modality_dims=(3, 2), hidden=4, encoder_depth=1, trunk_depth=1, class_count=2, rank=2)):
    """A model or server checkpoint of a fresh model, and its loader."""
    base, delta = init_model(cfg)
    path = tmp_path / f"{kind}.bin"
    if kind == "model":
        save_checkpoint(path, base, delta)
        return path, load_checkpoint
    save_server_state(path, init_server_state("adam", delta))
    return path, load_server_state


@pytest.mark.parametrize(
    "kind,key",
    [("model", "head.bias"), ("model", "head.up"), ("model", "rank"), ("server", "momentum_buf"), ("server", "lr")],
)
def test_loaders_name_file_and_missing_key(tmp_path, kind, key):
    path, load = saved_checkpoint(tmp_path, kind)
    rewrite_tensor_file(path, lambda meta, arrays: (meta if key in meta else arrays).pop(key))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{re.escape(repr(key))}"):
        load(path)


@pytest.mark.parametrize("kind", ["model", "server"])
@pytest.mark.parametrize(
    "edit,key",
    [
        pytest.param(lambda meta: meta["layers"].__setitem__(0, 5), "layers", id="not-an-object"),
        pytest.param(lambda meta: meta["layers"].clear(), "layers", id="no-layers"),
        pytest.param(lambda meta: meta["layers"][0].pop("depth"), "depth", id="no-depth"),
        pytest.param(lambda meta: meta["layers"][0].update(fan_in=None), "layers", id="null-fan"),
        pytest.param(lambda meta: meta["layers"][0].update(fan_in=meta["layers"][0]["fan_in"] + 0.5), "layers", id="fractional-fan"),
        pytest.param(lambda meta: meta.update(rank=meta["rank"] + 0.5), "rank", id="fractional-rank"),
    ],
)
def test_loaders_reject_malformed_layer_entry(tmp_path, kind, edit, key):
    path, load = saved_checkpoint(tmp_path, kind)
    rewrite_tensor_file(path, lambda meta, arrays: edit(meta))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{re.escape(repr(key))}"):
        load(path)


def head_at_depth_0(meta, arrays):
    meta["layers"][-1]["depth"] = 0


def rank_0(meta, arrays):
    """Rank 0, with every factor and moment buffer the zero width it implies."""
    meta["rank"] = 0
    for entry in meta["layers"]:
        arrays[f"{entry['name']}.up"] = np.zeros((entry["fan_out"], 0))
        arrays[f"{entry['name']}.down"] = np.zeros((0, entry["fan_in"]))
    for name in SERVER_STATE_BUFFERS:
        if name in arrays:
            arrays[name] = np.zeros(0)


@pytest.mark.parametrize("kind", ["model", "server"])
@pytest.mark.parametrize(
    "edit,message",
    [
        # read as three one-layer encoder stacks and a two-layer trunk
        pytest.param(head_at_depth_0, "header key 'layers' holds no layout that layer_specs builds", id="head-at-depth-0"),
        pytest.param(rank_0, "header keys 'rank' and 'layers' describe no model: rank must be >= 1, got 0", id="rank-0"),
    ],
)
def test_loaders_reject_layout_no_model_config_builds(tmp_path, kind, edit, message):
    cfg = ModelConfig(modality_dims=(3, 2), hidden=4, encoder_depth=2, trunk_depth=1, class_count=2, rank=2)
    path, load = saved_checkpoint(tmp_path, kind, cfg)
    rewrite_tensor_file(path, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load(path)


def test_loaders_accept_every_layout_of_the_model_grid(tmp_path):
    # the grid of tests/test_model.py::test_layout_equals_reference_counting_rule
    for modalities in (1, 2, 3):
        for enc in range(4):
            for trunk in range(4):
                cfg = ModelConfig(modality_dims=(3, 4, 5)[:modalities], hidden=6, encoder_depth=enc, trunk_depth=trunk, rank=2)
                for kind in ("model", "server"):
                    path, load = saved_checkpoint(tmp_path, kind, cfg)
                    loaded = load(path)
                    specs = (loaded[1] if kind == "model" else loaded.global_delta).specs
                    assert specs == layer_specs(cfg), (kind, modalities, enc, trunk)


@pytest.mark.parametrize(
    "edit,name",
    [
        # the default model's two 32 x 17 first-layer weights share a shape group
        pytest.param(
            lambda arrays: arrays.update({n: arrays[n].T.copy() for n in ("enc0.0.weight", "enc1.0.weight")}),
            "enc0.0.weight",
            id="first-layer-weights-transposed",
        ),
        pytest.param(lambda arrays: arrays.update({"head.bias": arrays["head.bias"].reshape(2, 2)}), "head.bias", id="head-bias-2x2"),
    ],
)
def test_load_checkpoint_rejects_misshapen_base(tmp_path, edit, name):
    path, load = saved_checkpoint(tmp_path, "model", ModelConfig())
    rewrite_tensor_file(path, lambda meta, arrays: edit(arrays))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: array {re.escape(repr(name))} has shape"):
        load(path)


# ---------- baseline ----------

def test_baseline_deterministic_and_k1_equals_solo():
    model_cfg, _, train, test = run_setup(seed=13)
    solo = round_robin_partition(train, 1)
    a = local_baseline(model_cfg, solo, train, test, LocalTrainConfig(epochs=2, batch_size=8), seed=13)
    b = local_baseline(model_cfg, solo, train, test, LocalTrainConfig(epochs=2, batch_size=8), seed=13)
    assert a == b
    assert list(a["clients"]) == ["0"]
    assert a["mean_value"] == a["clients"]["0"]["value"]

    base, delta0 = init_model(model_cfg)
    trained, _ = train_client(
        base, delta0, train, shards(solo)[0],
        LocalTrainConfig(epochs=2, batch_size=8), RegularizerConfig(enabled=False),
        seed=rng.seed_for(13, "baseline", 0),
    )
    assert a["clients"]["0"] == evaluate(base, trained, test)


def test_baseline_skips_empty_clients():
    model_cfg, _, train, test = run_setup(seed=14)
    parts = [*shards(round_robin_partition(train, 1)), empty_shard()]
    out = local_baseline(
        model_cfg, partition_of(parts), train, test,
        LocalTrainConfig(epochs=1, batch_size=8), seed=14,
    )
    assert out["skipped"] == [1]
    assert list(out["clients"]) == ["0"]


def test_avgm_default_lr_reaches_plain_avg():
    """avgm's steady step is lr / (1 - momentum) times the averaged delta;
    its default lr makes that plain_avg's step, so a default avgm run ends
    where plain_avg does instead of overshooting tenfold."""
    assert DEFAULT_SERVER_LR["avgm"] / (1.0 - MOMENTUM) == pytest.approx(DEFAULT_SERVER_LR["plain_avg"])
    finals = {}
    for kind in ("plain_avg", "avgm"):
        log, _, _ = run_rounds(*run_config(
            f"fl.aggregator={kind}", "synth.samples_per_class=20", "synth.test_samples_per_class=25", "fl.rounds=30",
        ))
        finals[kind] = log.final_eval()["value"]
    assert finals["avgm"] >= finals["plain_avg"] == 1.0
