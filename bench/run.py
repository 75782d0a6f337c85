"""fedmm benchmark: `fedmm train` on fixed workloads, timed end to end and
traced layer by layer.

Run from the repository root:

    python3 bench/run.py --workload cross_reg --seed 0 --seconds 30 --trace 0

Every invocation goes through the public entry point `fedmm.cli.run(argv)`
in this process, with the workload's `--set` overrides, `seed=<seed>` and
a fresh absolute `out_dir`. Its outputs must reproduce the reference
hashes: those pinned in workloads.py at the default seed, else those of
the run's first invocation. With `--trace 0` the run reports the
end-to-end metrics, with `--trace 1` the per-layer ones; names and units
come from BENCHMARK.json. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: layers are 32 wide, so extra
# threads only add scheduling noise on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from layer_trace import Probe, Tracer
from workloads import DEFAULT_SEED, OUTPUT_FILES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_TIMED = 3


def import_fedmm():
    """Import fedmm from this checkout's sources, never from elsewhere."""
    package = SRC / "fedmm"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"bench: no fedmm sources at {package}")
    sys.path.insert(0, str(SRC))
    import fedmm.cli

    if Path(fedmm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported fedmm from {fedmm.__file__}, not {package}")
    return fedmm


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }
    with contextlib.suppress(KeyError, TypeError):  # show_config(mode=) is numpy >= 1.26
        env["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["openblas configuration"]
    # numpy wheels bundle scipy-openblas; ask it what it actually runs with.
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so")):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            env["blas_threads"] = lib.scipy_openblas_get_num_threads64_()
            env["blas_core"] = lib.scipy_openblas_get_corename64_().decode()
    return env


@dataclass
class Outputs:
    digests: dict[str, str]
    final_metric: float
    rounds: int
    clients_sampled: int  # summed over rounds
    samples: int  # epochs x shard size, summed over client-rounds
    adapter_floats: int


def read_outputs(out: Path, epochs: int) -> Outputs:
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUT_FILES}
    lines = (out / "runlog.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if line]
    evals = [r["eval"] for r in records if r.get("eval") is not None]
    with open(out / "server_state.bin", "rb") as fh:
        arrays = json.loads(fh.readline())["arrays"]
    return Outputs(
        digests=digests,
        final_metric=float(evals[-1]["value"]),
        rounds=len(records),
        clients_sampled=sum(len(r["clients"]) for r in records),
        samples=epochs * sum(sum(r["n_k"].values()) for r in records),
        adapter_floats=sum(math.prod(a["shape"]) for a in arrays if a["name"].endswith((".up", ".down"))),
    )


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_train_rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["model.make_batch.train.rows"] += len(_arg(args, kwargs, 1, "sample_ids"))


def _count_eval_rows(tracer: Tracer, args, kwargs, result) -> None:
    ids = _arg(args, kwargs, 1, "sample_ids")
    tracer.counts["model.make_batch.eval.rows"] += len(ids)
    tracer.seen["eval_ids"].update(ids)


def _count_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["tensorio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def layer_probes() -> list[Probe]:
    """Each layer's public functions, at the attribute their caller reads."""
    from fedmm import cli, client, config, metrics, model, server

    return [
        Probe(cli, "run", "cli.run"),
        Probe(config.ExperimentConfig, "from_sources", "config.from_sources"),
        Probe(cli, "synth_generate", "data.synth_generate"),
        Probe(cli, "build_scenario", "partitioner.build_scenario"),
        Probe(cli, "run_rounds", "server.run_rounds"),
        Probe(server, "sample_clients", "server.sample_clients"),
        Probe(server, "local_train", "client.local_train"),
        Probe(client, "make_reg_context", "client.make_reg_context"),
        Probe(client, "reg_value_and_grad", "client.reg_value_and_grad"),
        Probe(client, "make_batch", "model.make_batch.train", _count_train_rows),
        Probe(client, "loss_and_grad", "model.loss_and_grad"),
        Probe(model.AdapterDelta, "to_vector", "model.AdapterDelta.to_vector"),
        Probe(model.AdapterDelta, "from_vector", "model.AdapterDelta.from_vector"),
        Probe(server, "pseudo_gradient", "server.pseudo_gradient"),
        Probe(server, "server_step", "server.server_step"),
        Probe(server, "evaluate", "metrics.evaluate"),
        Probe(metrics, "make_batch", "model.make_batch.eval", _count_eval_rows),
        Probe(metrics, "forward", "model.forward"),
        Probe(server.RunLog, "write", "server.RunLog.write"),
        Probe(cli, "save_server_state", "server.save_server_state"),
        Probe(cli, "save_checkpoint", "model.save_checkpoint"),
        Probe(model, "write_tensor_file", "tensorio.write_tensor_file", _count_bytes),
        Probe(server, "write_tensor_file", "tensorio.write_tensor_file", _count_bytes),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(tracer: Tracer, out: Outputs) -> tuple[dict[str, float], dict[str, float]]:
    """Counts that must repeat exactly across traced invocations, and the
    self times of one invocation."""
    counts: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for name, (calls, seconds) in tracer.self_times().items():
        counts[f"{name}.calls"] = calls
        self_s[f"{name}.self_s"] = seconds
    for name in ("model.make_batch.train.rows", "model.make_batch.eval.rows", "tensorio.bytes_written"):
        counts[name] = tracer.counts[name]
    steps = counts["model.loss_and_grad.calls"]
    vector_calls = counts["model.AdapterDelta.to_vector.calls"] + counts["model.AdapterDelta.from_vector.calls"]
    counts["model.vector_roundtrips_per_step"] = _ratio(vector_calls / 2, steps)
    counts["model.eval_rows_per_distinct_sample"] = _ratio(
        counts["model.make_batch.eval.rows"], len(tracer.seen["eval_ids"])
    )
    counts["client.reg_context_per_round"] = _ratio(counts["client.make_reg_context.calls"], out.rounds)
    counts["server.payload_bytes_per_round"] = _ratio(out.adapter_floats * 8 * 2 * out.clients_sampled, out.rounds)
    return counts, self_s


@dataclass
class Bench:
    cli: object  # the fedmm.cli module; `run` is read at each call, so a probe can replace it
    workload: Workload
    seed: int
    epochs: int
    reference: dict | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def argv(self, out: Path) -> list[str]:
        argv = ["train"]
        for item in (*self.workload.overrides, f"seed={self.seed}", f"out_dir={out}"):
            argv += ["--set", item]
        return argv

    def invoke(self, tracer: Tracer | None = None) -> tuple[float, Outputs] | None:
        """One checked `fedmm train`; None when it raised, exited non-zero
        or wrote bytes that differ from the reference."""
        self.attempted += 1
        out = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        try:
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()):
                with tracer.installed() if tracer else contextlib.nullcontext():
                    start = time.perf_counter()
                    code = self.cli.run(self.argv(out))
                    elapsed = time.perf_counter() - start
            if code != 0:
                return self.fail(f"fedmm train exited {code}")
            outputs = read_outputs(out, self.epochs)
        except Exception:  # any raise is a failed attempt; keep measuring
            traceback.print_exc(file=sys.stderr)
            return self.fail("fedmm train raised")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        observed = {**outputs.digests, "final_metric": outputs.final_metric}
        if self.reference is None:
            self.reference = self.workload.pinned if self.seed == DEFAULT_SEED and self.workload.pinned else observed
        if observed != self.reference:
            return self.fail(f"outputs differ from the reference: {observed}")
        return elapsed, outputs

    def fail(self, why: str) -> None:
        self.failed += 1
        if why not in self.problems:
            self.problems.append(why)
        return None


def setup_seconds(overrides: list[str]) -> float:
    """Everything before round 1: config resolution, the train and test
    manifests, and the scenario partition."""
    from fedmm.config import ExperimentConfig
    from fedmm.data import synth_generate
    from fedmm.partitioner import build_scenario

    start = time.perf_counter()
    cfg = ExperimentConfig.from_sources(None, overrides)
    synth = cfg.synth_config()
    train = synth_generate(synth, split="train")
    synth_generate(synth, split="test", samples_per_class=int(cfg["synth.test_samples_per_class"]))
    build_scenario(train, cfg.scenario_spec())
    return time.perf_counter() - start


def summary(name: str, values: list[float], unit: str) -> str:
    if len(values) < 2:
        return f"{name}: {values[0] if values else float('nan'):.6g} {unit} (n={len(values)})"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{name}: median {statistics.median(values):.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def measure(bench: Bench, overrides: list[str], seconds: float, trace: bool) -> tuple[dict[str, float], list[str]]:
    """Alternate set-up and `fedmm train` (and, when tracing, a traced
    `fedmm train`) until `seconds` have passed, so that every figure is a
    median over the same stretch of time."""
    notes: list[str] = []
    setups: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    counts: dict[str, float] | None = None
    self_times: dict[str, list[float]] = {}
    last_tracer: Tracer | None = None

    first = bench.invoke()  # warm-up, untimed: fills caches and fixes the reference
    outputs = first[1] if first else None
    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_TIMED or time.perf_counter() < deadline:
        if bench.failed >= MIN_TIMED:
            break
        setups.append(setup_seconds(overrides))
        result = bench.invoke()
        if result is not None:
            untraced.append(result[0])
            outputs = result[1]
        if not trace:
            continue
        tracer = Tracer(layer_probes())
        result = bench.invoke(tracer)
        if result is None:
            continue
        traced.append(result[0])
        run_counts, run_self = layer_counts(tracer, result[1])
        if counts is None:
            counts = run_counts
            notes += [f"no such attribute, traced as 0 calls: {m}" for m in tracer.missing]
        elif run_counts != counts:
            changed = sorted(k for k in counts if counts[k] != run_counts[k])
            bench.problems.append(f"traced counts did not repeat: {changed}")
        for name, value in run_self.items():
            self_times.setdefault(name, []).append(value)
        last_tracer = tracer

    metrics: dict[str, float] = {}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        notes.append(summary("setup_s", setups, "s"))
    if untraced and outputs is not None:
        run_s = statistics.median(untraced)
        metrics["run_s"] = run_s
        metrics["train_samples_per_s"] = outputs.samples / run_s
        notes.append(summary("run_s", untraced, "s"))
        notes.append(f"samples per invocation: {outputs.samples}")
        notes.append("outputs: " + json.dumps({**outputs.digests, "final_metric": outputs.final_metric}))
    if trace and counts is not None and traced and untraced:
        metrics.update(counts)
        metrics.update({name: statistics.median(values) for name, values in self_times.items()})
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["metrics.final_value"] = outputs.final_metric
        notes.append(summary("traced run_s", traced, "s"))
        reg_calls = counts["client.reg_value_and_grad.calls"]
        if bench.workload.reg_bypassed and reg_calls != 0:
            bench.problems.append(f"regularizer ran {reg_calls} times on a workload that must bypass it")
        if not bench.workload.reg_bypassed and reg_calls == 0:
            bench.problems.append("regularizer never ran on a workload that must exercise it")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{bench.workload.name}-seed{bench.seed}.jsonl"
        last_tracer.write_spans(spans_path)
        notes.append(f"spans of the last traced invocation: {spans_path.relative_to(ROOT)}")
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    fedmm = import_fedmm()
    workload = WORKLOADS[args.workload]
    overrides = [*workload.overrides, f"seed={args.seed}"]
    print(f"bench: workload={workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(environment()))

    from fedmm.config import ExperimentConfig

    epochs = int(ExperimentConfig.from_sources(None, overrides)["local.epochs"])
    bench = Bench(cli=fedmm.cli, workload=workload, seed=args.seed, epochs=epochs)
    OUT.mkdir(exist_ok=True)
    try:
        measured, notes = measure(bench, overrides, args.seconds, bool(args.trace))
    finally:
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when nothing else was left there
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for note in notes:
        print(note)
    metrics = {}
    for entry in wanted:
        if entry["name"] in measured:
            value = measured[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"  {entry['name']} = {value:.6g} {entry['unit']} ({entry['better']} is better)")
    unmeasured = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    if unmeasured:
        bench.problems.append(f"{len(unmeasured)} metrics not measured: {', '.join(unmeasured)}")
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
