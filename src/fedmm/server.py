"""Server-side aggregation and the round loop.

The server never sees raw samples. Each round it samples clients, hands
them the current global adapter delta, collects their trained deltas,
forms the size-weighted pseudo-gradient, and feeds that to one of five
elementwise update rules:

  plain_avg  w += d
  avgm       buf = momentum * buf + d;            w += lr * buf
  adagrad    v += d^2;                            w += lr * d / (sqrt(v) + tau)
  adam       m = b1 m + (1-b1) d; v = b2 v + (1-b2) d^2
                                                  w += lr * m / (sqrt(v) + tau)
  yogi       m as adam; v = v - (1-b2) d^2 sign(v - d^2)
                                                  w += lr * m / (sqrt(v) + tau)

No bias correction anywhere; moments start at zero.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import rng
from .client import ClientData, LocalTrainConfig, RegularizerConfig, client_data, local_train, reg_contexts
from .data import DatasetManifest
from .metrics import EvalResult, eval_chunks, evaluate
from .model import AdapterDelta, BaseWeights, ModelConfig, adapter_from_file, adapter_meta, init_model, make_batch
from .partitioner import ClientPartition
from .tensorio import read_tensor_file, write_tensor_file

AGGREGATOR_KINDS = ("plain_avg", "avgm", "adagrad", "adam", "yogi")
DEFAULT_SERVER_LR = {"plain_avg": 1.0, "avgm": 1.0, "adagrad": 0.01, "adam": 0.01, "yogi": 0.01}


@dataclass(frozen=True)
class ServerState:
    """Aggregator kind, global delta, flat moment buffers, round counter,
    and hyperparameters. server_step returns a new state; nothing here is
    updated in place."""

    kind: str
    global_delta: AdapterDelta
    first_moment: np.ndarray
    second_moment: np.ndarray
    momentum_buf: np.ndarray
    round: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3
    momentum: float = 0.9


def init_server_state(kind: str, delta: AdapterDelta, lr: float | None = None) -> ServerState:
    if kind not in AGGREGATOR_KINDS:
        raise ValueError(f"kind must be one of {AGGREGATOR_KINDS}, got {kind!r}")
    width = delta.flat.size
    return ServerState(
        kind=kind,
        global_delta=replace(delta, flat=delta.flat.copy()),
        first_moment=np.zeros(width),
        second_moment=np.zeros(width),
        momentum_buf=np.zeros(width),
        round=0,
        lr=DEFAULT_SERVER_LR[kind] if lr is None else lr,
    )


def sample_clients(sizes: list[int], per_round: int, round_idx: int, seed: int) -> list[int]:
    """per_round distinct nonempty-client indices, uniform, deterministic
    in (seed, round_idx); returned ascending."""
    eligible = [k for k, n in enumerate(sizes) if n > 0]
    if per_round < 1:
        raise ValueError(f"per_round must be >= 1, got {per_round}")
    if per_round > len(eligible):
        raise ValueError(f"cannot sample {per_round} of {len(eligible)} nonempty clients")
    gen = rng.substream(seed, "sample", round_idx)
    pick = gen.choice(len(eligible), size=per_round, replace=False)
    return sorted(eligible[int(i)] for i in pick)


def pseudo_gradient(
    client_deltas: list[AdapterDelta],
    client_sizes: list[int],
    global_delta: AdapterDelta,
) -> AdapterDelta:
    """Size-weighted mean of client movement away from the global delta."""
    if not client_deltas or len(client_deltas) != len(client_sizes):
        raise ValueError("need one size per client delta")
    if any(n <= 0 for n in client_sizes):
        raise ValueError(f"client sizes must be positive, got {client_sizes}")
    total = float(sum(client_sizes))
    w0 = global_delta.flat
    acc = np.zeros_like(w0)
    for delta, n in zip(client_deltas, client_sizes):
        acc += (n / total) * (delta.flat - w0)
    return replace(global_delta, flat=acc)


def server_step(state: ServerState, pseudo_grad: AdapterDelta) -> ServerState:
    """One aggregation step; pure, returns the successor state."""
    d = pseudo_grad.flat
    w = state.global_delta.flat
    m = state.first_moment.copy()
    v = state.second_moment.copy()
    buf = state.momentum_buf.copy()
    if state.kind == "plain_avg":
        w = w + d
    elif state.kind == "avgm":
        buf = state.momentum * buf + d
        w = w + state.lr * buf
    elif state.kind == "adagrad":
        v = v + d * d
        w = w + state.lr * d / (np.sqrt(v) + state.tau)
    elif state.kind == "adam":
        m = state.beta1 * m + (1.0 - state.beta1) * d
        v = state.beta2 * v + (1.0 - state.beta2) * d * d
        w = w + state.lr * m / (np.sqrt(v) + state.tau)
    elif state.kind == "yogi":
        m = state.beta1 * m + (1.0 - state.beta1) * d
        v = v - (1.0 - state.beta2) * d * d * np.sign(v - d * d)
        w = w + state.lr * m / (np.sqrt(v) + state.tau)
    else:
        raise ValueError(f"unknown aggregator {state.kind!r}")
    return replace(
        state,
        global_delta=replace(state.global_delta, flat=w),
        first_moment=m,
        second_moment=v,
        momentum_buf=buf,
        round=state.round + 1,
    )


@dataclass(frozen=True)
class FLRunConfig:
    rounds: int = 50
    clients_per_round: int = 2
    aggregator: str = "adam"
    local: LocalTrainConfig = field(default_factory=LocalTrainConfig)
    reg: RegularizerConfig = field(default_factory=RegularizerConfig)
    server_lr: float | None = None
    eval_every: int = 5
    metric: str = "auto"
    seed: int = 0

    def validate(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ValueError(f"aggregator must be one of {AGGREGATOR_KINDS}, got {self.aggregator!r}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        self.local.validate()
        self.reg.validate()


@dataclass
class RunLog:
    """One JSON-serializable record per round, in round order."""

    records: list[dict] = field(default_factory=list)

    def write(self, path: str | Path) -> None:
        """Write strict JSON lines; a non-finite float raises ValueError
        before the file is opened."""
        text = "".join(json.dumps(rec, ensure_ascii=False, allow_nan=False) + "\n" for rec in self.records)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    @classmethod
    def read(cls, path: str | Path) -> "RunLog":
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return cls(records=records)

    def final_eval(self) -> dict | None:
        for rec in reversed(self.records):
            if rec.get("eval") is not None:
                return rec["eval"]
        return None


def _eval_obj(result: EvalResult) -> dict:
    return {"metric": result.metric, "value": result.value, "accuracy": result.accuracy}


def run_rounds(
    cfg: FLRunConfig,
    model_cfg: ModelConfig,
    partition: ClientPartition,
    train_manifest: DatasetManifest,
    test_manifest: DatasetManifest,
    timings: list[float] | None = None,
) -> tuple[RunLog, ServerState, BaseWeights]:
    """The full federated loop. Test samples are only ever scored, inside
    evaluate, never trained on. Per-round wall times go into the optional
    timings list, kept out of the RunLog so reruns of the same config
    produce identical logs.

    Each client's shard is assembled and classified the first time the
    client is sampled, and the test set once per run; both caches die
    with the call. A non-finite client loss or adapter, or a non-finite
    global adapter after aggregation, raises ValueError naming the round.
    """
    cfg.validate()
    sizes = partition.sizes()
    nonempty = sum(1 for n in sizes if n > 0)
    if not 1 <= cfg.clients_per_round <= nonempty:
        raise ValueError(
            f"clients_per_round {cfg.clients_per_round} outside [1, {nonempty} nonempty clients]"
        )
    base, delta0 = init_model(model_cfg)
    state = init_server_state(cfg.aggregator, delta0, cfg.server_lr)
    clients: dict[int, ClientData] = {}
    test_chunks = eval_chunks(test_manifest)
    log = RunLog()
    for t in range(1, cfg.rounds + 1):
        started = time.perf_counter()
        picked = sample_clients(sizes, cfg.clients_per_round, t, cfg.seed)
        for k in picked:
            if k not in clients:
                clients[k] = client_data(train_manifest, partition.clients[k], cfg.reg)
        contexts = reg_contexts(state.global_delta, cfg.reg.margin, [clients[k].gamma for k in picked])
        deltas, betas, gammas, losses = [], {}, {}, {}
        for k, ctx in zip(picked, contexts):
            client = clients[k]
            trained, trace = local_train(
                base,
                state.global_delta,
                client.batch,
                cfg.local,
                seed=rng.seed_for(cfg.seed, "local", t, k),
                reg_ctx=ctx,
            )
            if not np.isfinite(trace).all() or not np.isfinite(trained.flat).all():
                raise ValueError(f"round {t}, client {k}: training loss or adapter is not finite (epoch losses {trace})")
            deltas.append(trained)
            betas[str(k)] = client.missing_rate
            gammas[str(k)] = client.gamma
            losses[str(k)] = trace
        grad = pseudo_gradient(deltas, [sizes[k] for k in picked], state.global_delta)
        state = server_step(state, grad)
        if not np.isfinite(state.global_delta.flat).all():
            raise ValueError(f"round {t}: global adapter is not finite after aggregating clients {picked}")
        eval_obj = None
        if t % cfg.eval_every == 0 or t == cfg.rounds:
            eval_obj = _eval_obj(evaluate(base, state.global_delta, test_manifest, cfg.metric, chunks=test_chunks))
        if timings is not None:
            timings.append(time.perf_counter() - started)
        log.records.append(
            {
                "round": t,
                "clients": picked,
                "n_k": {str(k): sizes[k] for k in picked},
                "beta": betas,
                "gamma": gammas,
                "client_loss": losses,
                "eval": eval_obj,
            }
        )
    return log, state, base


def local_baseline(
    model_cfg: ModelConfig,
    partition: ClientPartition,
    train_manifest: DatasetManifest,
    test_manifest: DatasetManifest,
    local_cfg: LocalTrainConfig | None = None,
    metric: str = "auto",
    seed: int = 0,
) -> dict:
    """Isolated per-client training from the shared init, no aggregation,
    no proximal term. Returns per-client results, their unweighted mean
    value and accuracy, and which clients were skipped as empty. The test
    set is assembled once and scored for every client."""
    local_cfg = local_cfg if local_cfg is not None else LocalTrainConfig(epochs=5)
    base, delta0 = init_model(model_cfg)
    test_chunks = eval_chunks(test_manifest)
    per_client: dict[str, dict] = {}
    skipped: list[int] = []
    for k, slot in enumerate(partition.clients):
        if len(slot) == 0:
            skipped.append(k)
            continue
        trained, _ = local_train(
            base,
            delta0,
            make_batch(train_manifest, slot.sample_ids, slot.masks),
            local_cfg,
            seed=rng.seed_for(seed, "baseline", k),
        )
        result = evaluate(base, trained, test_manifest, metric, chunks=test_chunks)
        per_client[str(k)] = _eval_obj(result)
    if not per_client:
        raise ValueError("no nonempty clients to train")
    values = [r["value"] for r in per_client.values()]
    accs = [r["accuracy"] for r in per_client.values()]
    return {
        "clients": per_client,
        "mean_value": float(np.mean(values)),
        "mean_accuracy": float(np.mean(accs)),
        "skipped": skipped,
    }


def save_server_state(path: str | Path, state: ServerState) -> None:
    delta = state.global_delta
    meta = {
        "kind": "server",
        "aggregator": state.kind,
        "round": state.round,
        "lr": state.lr,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "tau": state.tau,
        "momentum": state.momentum,
        **adapter_meta(delta),
    }
    arrays: list[tuple[str, np.ndarray]] = []
    for i, s in enumerate(delta.specs):
        arrays.append((f"{s.name}.up", delta.up[i]))
        arrays.append((f"{s.name}.down", delta.down[i]))
    arrays.append(("first_moment", state.first_moment))
    arrays.append(("second_moment", state.second_moment))
    arrays.append(("momentum_buf", state.momentum_buf))
    write_tensor_file(path, meta, arrays)


def load_server_state(path: str | Path) -> ServerState:
    """Read a server checkpoint, rejecting an unknown aggregator and any
    moment buffer whose width differs from the adapter's."""
    meta, arrays = read_tensor_file(path)
    if meta.get("kind") != "server":
        raise ValueError(f"{path}: not a server checkpoint")
    if meta["aggregator"] not in AGGREGATOR_KINDS:
        raise ValueError(f"{path}: aggregator must be one of {AGGREGATOR_KINDS}, got {meta['aggregator']!r}")
    delta = adapter_from_file(meta, arrays)
    for name in ("first_moment", "second_moment", "momentum_buf"):
        if arrays[name].shape != delta.flat.shape:
            raise ValueError(f"{path}: {name} has shape {arrays[name].shape}, expected {delta.flat.shape}")
    return ServerState(
        kind=meta["aggregator"],
        global_delta=delta,
        first_moment=arrays["first_moment"],
        second_moment=arrays["second_moment"],
        momentum_buf=arrays["momentum_buf"],
        round=int(meta["round"]),
        lr=float(meta["lr"]),
        beta1=float(meta["beta1"]),
        beta2=float(meta["beta2"]),
        tau=float(meta["tau"]),
        momentum=float(meta["momentum"]),
    )
