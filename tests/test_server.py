import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import randomize_delta, round_robin_partition, tiny_manifest, train_client
from fedmm import rng
from fedmm.client import LocalTrainConfig, RegularizerConfig
from fedmm.model import ModelConfig, init_model, loss_and_grad, make_batch
from fedmm.partitioner import ClientPartition, ClientSlot, dirichlet_partition
from fedmm.server import (
    AGGREGATOR_KINDS,
    DEFAULT_SERVER_LR,
    FLRunConfig,
    RunLog,
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
            w += d
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


def test_sample_frequency_uniform():
    counts = np.zeros(10)
    rounds = 10_000
    for r in range(rounds):
        for k in sample_clients([1] * 10, 2, round_idx=r, seed=11):
            counts[k] += 1
    freqs = counts / rounds
    assert np.abs(freqs - 0.2).max() <= 0.02


# ---------- pseudo gradient ----------

def test_pseudo_gradient_single_client(tiny_delta):
    g = randomize_delta(tiny_delta, seed=1)
    w = randomize_delta(tiny_delta, seed=2)
    out = pseudo_gradient([w], [5], g)
    assert np.allclose(out.flat, w.flat - g.flat)


def test_pseudo_gradient_symmetry_cancels(tiny_delta):
    g = randomize_delta(tiny_delta, seed=3)
    d = randomize_delta(replace(tiny_delta, flat=np.zeros_like(tiny_delta.flat)), seed=4)
    plus = replace(g, flat=g.flat + d.flat)
    minus = replace(g, flat=g.flat - d.flat)
    out = pseudo_gradient([plus, minus], [7, 7], g)
    assert np.allclose(out.flat, 0.0, atol=1e-12)


def test_pseudo_gradient_weighted_hand_case(tiny_delta):
    g = replace(tiny_delta, flat=np.zeros_like(tiny_delta.flat))
    four = replace(g, flat=np.full_like(g.flat, 4.0))
    zero = replace(g, flat=np.zeros_like(g.flat))
    out = pseudo_gradient([four, zero], [1, 3], g)
    assert np.allclose(out.flat, 1.0)


def test_pseudo_gradient_zero_total_size(tiny_delta):
    with pytest.raises(ValueError, match="positive"):
        pseudo_gradient([tiny_delta], [0], tiny_delta)


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
    for slot in partition.clients:
        batch = make_batch(manifest, slot.sample_ids, slot.masks)
        _, grad = loss_and_grad(base, delta, batch)
        client_deltas.append(replace(delta, flat=delta.flat - lr * grad.flat))
        sizes.append(len(slot))

    state = init_server_state("plain_avg", delta)
    state = server_step(state, pseudo_gradient(client_deltas, sizes, delta))

    ids = [sid for slot in partition.clients for sid in slot.sample_ids]
    masks = [m for slot in partition.clients for m in slot.masks]
    pooled = make_batch(manifest, ids, masks)
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
    return model_cfg, partition, train, test


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
        base, delta0, train, partition.clients[picked],
        cfg.local, cfg.reg, seed=rng.seed_for(cfg.seed, "local", 1, picked),
    )
    assert np.array_equal(state.global_delta.flat, want.flat)


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
            assert rec["n_k"][str(cid)] == len(partition.clients[cid])
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


def rewrite_tensor_file(path, edit):
    meta, arrays = read_tensor_file(path)
    edit(meta, arrays)
    write_tensor_file(path, meta, list(arrays.items()))


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


# ---------- baseline ----------

def test_baseline_deterministic_and_k1_equals_solo():
    model_cfg, _, train, test = run_setup(seed=13)
    solo = ClientPartition(clients=[ClientSlot(
        sample_ids=[s.id for s in train.samples],
        masks=[s.presence(train.modalities) for s in train.samples],
    )])
    a = local_baseline(model_cfg, solo, train, test, LocalTrainConfig(epochs=2, batch_size=8), seed=13)
    b = local_baseline(model_cfg, solo, train, test, LocalTrainConfig(epochs=2, batch_size=8), seed=13)
    assert a == b
    assert list(a["clients"]) == ["0"]
    assert a["mean_value"] == a["clients"]["0"]["value"]

    base, delta0 = init_model(model_cfg)
    trained, _ = train_client(
        base, delta0, train, solo.clients[0],
        LocalTrainConfig(epochs=2, batch_size=8), RegularizerConfig(enabled=False),
        seed=rng.seed_for(13, "baseline", 0),
    )
    from fedmm.metrics import evaluate
    want = evaluate(base, trained, test)
    assert a["clients"]["0"]["value"] == want.value


def test_baseline_skips_empty_clients():
    model_cfg, _, train, test = run_setup(seed=14)
    slots = [
        ClientSlot(
            sample_ids=[s.id for s in train.samples],
            masks=[s.presence(train.modalities) for s in train.samples],
        ),
        ClientSlot(),
    ]
    out = local_baseline(
        model_cfg, ClientPartition(clients=slots), train, test,
        LocalTrainConfig(epochs=1, batch_size=8), seed=14,
    )
    assert out["skipped"] == [1]
    assert list(out["clients"]) == ["0"]
