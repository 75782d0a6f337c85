"""Server-side aggregation and the round loop.

The server never sees raw samples. Each round it samples clients, hands
them the current global adapter delta, collects their trained deltas,
forms the size-weighted pseudo-gradient, and feeds that to one of five
elementwise update rules (plain_avg is FedAvg with a server learning
rate, whose default of 1 adds the averaged delta as it is):

  plain_avg  w += lr * d
  avgm       buf = momentum * buf + d;            w += lr * buf
  adagrad    v += d^2;                            w += lr * d / (sqrt(v) + tau)
  adam       m = b1 m + (1-b1) d; v = b2 v + (1-b2) d^2
                                                  w += lr * m / (sqrt(v) + tau)
  yogi       m as adam; v = v - (1-b2) d^2 sign(v - d^2)
                                                  w += lr * m / (sqrt(v) + tau)

No bias correction anywhere; moments start at zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import rng
from .client import LocalTrainConfig, RegularizerConfig, build_train_set, local_train, round_reg_context
from .data import DatasetManifest
from .metrics import EvalSet, evaluate
from .model import (
    AdapterDelta,
    BaseWeights,
    Grouped,
    ModelConfig,
    adapter_meta,
    compose_updates,
    grouped,
    init_model,
    layer_arrays,
    layer_order,
    read_checkpoint,
)
from .partitioner import ClientPartition
from .tensorio import dumps, loads, write_lines, write_tensor_file

AGGREGATOR_KINDS = ("plain_avg", "avgm", "adagrad", "adam", "yogi")
# avgm's steady-state step is lr / (1 - momentum) times the averaged
# delta, so 0.1 with momentum 0.9 moves as far as plain_avg.
DEFAULT_SERVER_LR = {"plain_avg": 1.0, "avgm": 0.1, "adagrad": 0.01, "adam": 0.01, "yogi": 0.01}
# What server_state.bin holds beside its kind and the adapter: the
# ServerState fields in header order ("aggregator" holds ServerState.kind),
# each with the test its value must pass and what that test asks, then
# the moment buffers in array order. bool is an int subclass; a JSON true
# is neither a round nor a rate.
_RATE = (lambda v: type(v) in (int, float) and v > 0, "be > 0")
_DECAY = (lambda v: type(v) in (int, float) and 0 <= v < 1, "lie in [0, 1)")
SERVER_STATE_HEADER = {
    "aggregator": (lambda v: v in AGGREGATOR_KINDS, f"be one of {AGGREGATOR_KINDS}"),
    "round": (lambda v: type(v) is int and v >= 0, "be an int >= 0"),
    "lr": _RATE, "beta1": _DECAY, "beta2": _DECAY, "tau": _RATE, "momentum": _DECAY,
}
SERVER_STATE_BUFFERS = ("first_moment", "second_moment", "momentum_buf")


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
    if lr is not None and not lr > 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    width = delta.flat.size
    return ServerState(
        kind=kind,
        global_delta=replace(delta, flat=delta.flat.copy()),
        **{name: np.zeros(width) for name in SERVER_STATE_BUFFERS},
        round=0,
        lr=DEFAULT_SERVER_LR[kind] if lr is None else lr,
    )


def sample_clients(sizes: list[int], per_round: int, round_idx: int, seed: int) -> list[int]:
    """per_round distinct nonempty-client indices, uniform, deterministic
    in (seed, round_idx); returned ascending."""
    eligible = np.flatnonzero(sizes)
    if per_round > len(eligible):
        raise ValueError(f"cannot sample {per_round} of {len(eligible)} nonempty clients")
    gen = rng.substream(seed, "sample", round_idx)
    pick = gen.choice(len(eligible), size=per_round, replace=False)
    return sorted(eligible[pick].tolist())


def pseudo_gradient(
    trained: AdapterDelta,
    client_sizes: list[int],
    global_delta: AdapterDelta,
) -> AdapterDelta:
    """Size-weighted mean of client movement away from the global delta;
    trained holds one client per row of its (K, P) matrix, summed row by
    row in that order."""
    rows = trained.flat
    if rows.ndim != 2 or not len(rows) or len(rows) != len(client_sizes):
        raise ValueError("need one size per client delta")
    if any(n <= 0 for n in client_sizes):
        raise ValueError(f"client sizes must be positive, got {client_sizes}")
    total = float(sum(client_sizes))
    w0 = global_delta.flat
    acc = np.zeros_like(w0)
    for row, n in zip(rows, client_sizes):
        acc += (n / total) * (row - w0)
    return replace(global_delta, flat=acc)


def server_step(state: ServerState, pseudo_grad: AdapterDelta) -> ServerState:
    """One aggregation step; pure, returns the successor state."""
    d = pseudo_grad.flat
    w = state.global_delta.flat
    m = state.first_moment.copy()
    v = state.second_moment.copy()
    buf = state.momentum_buf.copy()
    if state.kind == "plain_avg":
        w = w + state.lr * d
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
    else:  # yogi; init_server_state and load_server_state admit no other kind
        m = state.beta1 * m + (1.0 - state.beta1) * d
        v = v - (1.0 - state.beta2) * d * d * np.sign(v - d * d)
        w = w + state.lr * m / (np.sqrt(v) + state.tau)
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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.clients_per_round < 1:
            raise ValueError(f"clients_per_round must be >= 1, got {self.clients_per_round}")
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ValueError(f"aggregator must be one of {AGGREGATOR_KINDS}, got {self.aggregator!r}")
        if self.server_lr is not None and self.server_lr <= 0:
            raise ValueError(f"server_lr must be > 0, got {self.server_lr}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


@dataclass
class RunLog:
    """One JSON-serializable record per round, in round order."""

    records: list[dict] = field(default_factory=list)

    def write(self, path: str | Path) -> None:
        """Write strict JSON lines; a non-finite float raises ValueError
        before the file is opened."""
        write_lines(path, map(dumps, self.records))

    @classmethod
    def read(cls, path: str | Path) -> "RunLog":
        """The records of a run log. Each line must be strict JSON
        (tensorio.loads) holding an object whose eval, unless null or
        absent, is an object as evaluate writes it: a string metric and a
        number, not a boolean, for each of value and accuracy. Any other
        line raises ValueError naming the file and the line."""
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    try:
                        records.append(_check_record(loads(line)))
                    except ValueError as err:
                        raise ValueError(f"{path}:{lineno}: {err}") from None
        return cls(records=records)

    def final_eval(self) -> dict | None:
        for rec in reversed(self.records):
            if rec.get("eval") is not None:
                return rec["eval"]
        return None


def _check_record(record: object) -> dict:
    """record, if RunLog.read admits it; else ValueError saying why."""
    if type(record) is not dict:
        raise ValueError(f"a record must be an object, got {record!r:.80}")
    ev = record.get("eval")
    if ev is not None and not (
        type(ev) is dict and type(ev.get("metric")) is str and all(type(ev.get(key)) in (int, float) for key in ("value", "accuracy"))
    ):
        raise ValueError(f"eval must be null or an object with a string metric and a number value and accuracy, got {ev!r:.80}")
    return record


def _check_trained(trained: AdapterDelta, traces: list[list[float]], clients: list[int], where: str = "") -> None:
    """ValueError naming, after the prefix `where`, the first of clients
    (one per row of trained and per loss trace) whose epoch losses or
    trained adapter hold a non-finite value."""
    if not (np.isfinite(trained.flat).all() and np.isfinite(traces).all()):
        for k, row, trace in zip(clients, trained.flat, traces):
            if not (np.isfinite(row).all() and np.isfinite(trace).all()):
                raise ValueError(f"{where}client {k}: training loss or adapter is not finite (epoch losses {trace})")


def _compose(base: BaseWeights, delta: AdapterDelta) -> tuple[Grouped, Grouped]:
    """A global adapter's composed updates and its effective weights."""
    composed = compose_updates(delta)
    return composed, grouped(base.groups, composed.vec + base.flat)


def run_rounds(
    cfg: FLRunConfig,
    model_cfg: ModelConfig,
    partition: ClientPartition,
    train_manifest: DatasetManifest,
    test: EvalSet,
    timings: list[float] | None = None,
) -> tuple[RunLog, ServerState, BaseWeights]:
    """The full federated loop. Test samples are only ever scored, inside
    evaluate, never trained on. Per-round wall times go into the optional
    timings list, kept out of the RunLog so reruns of the same config
    produce identical logs.

    Every client is profiled and every shard assembled once, up front,
    as one TrainSet. Each version of the global adapter is composed once,
    before round 1 and after every aggregation; its composed updates give
    the round's proximal targets, and its effective weights are what
    evaluate scores and what every lockstep group's first step starts
    from. One local_train call trains a round's clients, and their
    results are checked and aggregated in sampled order. A non-finite
    client loss or adapter, or a non-finite global adapter after
    aggregation, raises ValueError naming the round.
    """
    sizes = partition.sizes()
    base, delta0 = init_model(model_cfg)
    state = init_server_state(cfg.aggregator, delta0, cfg.server_lr)
    data = build_train_set(train_manifest, partition, cfg.reg)
    composed, weights = _compose(base, state.global_delta)
    log = RunLog()
    for t in range(1, cfg.rounds + 1):
        started = time.perf_counter()
        picked = sample_clients(sizes, cfg.clients_per_round, t, cfg.seed)
        seeds = [rng.seed_for(cfg.seed, "local", t, k) for k in picked]
        ctx = round_reg_context(state.global_delta, composed, cfg.reg.margin, [data.gamma[k] for k in picked])
        trained, traces = local_train(base, state.global_delta, data, picked, cfg.local, seeds, ctx, weights)
        _check_trained(trained, traces, picked, f"round {t}, ")
        grad = pseudo_gradient(trained, [sizes[k] for k in picked], state.global_delta)
        del trained  # freed before the next round trains
        state = server_step(state, grad)
        if not np.isfinite(state.global_delta.flat).all():
            raise ValueError(f"round {t}: global adapter is not finite after aggregating clients {picked}")
        composed, weights = _compose(base, state.global_delta)
        eval_obj = None
        if t % cfg.eval_every == 0 or t == cfg.rounds:
            eval_obj = evaluate(base, state.global_delta, test, weights)
        if timings is not None:
            timings.append(time.perf_counter() - started)
        log.records.append(
            {
                "round": t,
                "clients": picked,
                "n_k": {str(k): sizes[k] for k in picked},
                "beta": {str(k): data.missing_rate[k] for k in picked},
                "gamma": {str(k): data.gamma[k] for k in picked},
                "client_loss": {str(k): trace for k, trace in zip(picked, traces)},
                "eval": eval_obj,
            }
        )
    return log, state, base


def local_baseline(
    model_cfg: ModelConfig,
    partition: ClientPartition,
    train_manifest: DatasetManifest,
    test: EvalSet,
    local_cfg: LocalTrainConfig,
    seed: int = 0,
) -> dict:
    """Isolated per-client training from the shared init, no aggregation,
    no proximal term. Returns per-client results, their unweighted mean
    value and accuracy, and which clients were skipped as empty. Clients
    of equal shard size train in lockstep groups, as in run_rounds, and
    every client is scored on the one prebuilt test set. A non-finite
    client loss or adapter raises ValueError naming the client."""
    base, delta0 = init_model(model_cfg)
    sizes = partition.sizes()
    nonempty = [k for k, n in enumerate(sizes) if n > 0]
    data = build_train_set(train_manifest, partition, RegularizerConfig(enabled=False))
    seeds = [rng.seed_for(seed, "baseline", k) for k in nonempty]
    trained, traces = local_train(base, delta0, data, nonempty, local_cfg, seeds)
    _check_trained(trained, traces, nonempty)
    per_client = {
        str(k): evaluate(base, replace(delta0, flat=row), test)
        for k, row in zip(nonempty, trained.flat)
    }
    values = [r["value"] for r in per_client.values()]
    accs = [r["accuracy"] for r in per_client.values()]
    return {
        "clients": per_client,
        "mean_value": float(np.mean(values)),
        "mean_accuracy": float(np.mean(accs)),
        "skipped": [k for k, n in enumerate(sizes) if n == 0],
    }


def save_server_state(path: str | Path, state: ServerState) -> None:
    delta = state.global_delta
    meta = {
        "kind": "server",
        **{name: getattr(state, "kind" if name == "aggregator" else name) for name in SERVER_STATE_HEADER},
        **adapter_meta(delta),
    }
    # the moment buffers in layer order, as the per-layer arrays before them
    order = layer_order(delta)
    buffers = [(name, getattr(state, name)[order]) for name in SERVER_STATE_BUFFERS]
    write_tensor_file(path, meta, layer_arrays(delta) + buffers)


def load_server_state(path: str | Path) -> ServerState:
    """Read a server checkpoint under SERVER_STATE_HEADER and
    SERVER_STATE_BUFFERS (read_checkpoint), whose second moment must be
    nowhere negative: adagrad, adam and yogi keep it >= 0, and sqrt of a
    negative entry is NaN at the next server_step."""
    meta, arrays, delta = read_checkpoint(path, "server", SERVER_STATE_HEADER, SERVER_STATE_BUFFERS)
    if (arrays["second_moment"] < 0).any():
        raise ValueError(f"{path}: array 'second_moment' has a negative entry")
    from_layer_order = np.argsort(layer_order(delta))
    return ServerState(
        kind=meta["aggregator"],
        global_delta=delta,
        **{name: arrays[name][from_layer_order] for name in SERVER_STATE_BUFFERS},
        round=meta["round"],
        **{name: float(meta[name]) for name in list(SERVER_STATE_HEADER)[2:]},
    )
