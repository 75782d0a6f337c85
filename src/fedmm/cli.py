"""Command-line entry points.

Subcommands:
  partition            build a partition, write it with its count table
  train                run the federated loop, write runlog and checkpoints
  baseline             isolated per-client training, write baseline.json
  export-instructions  render per-client instruction JSONL files
  report               collect run directories into one CSV table
  sweep                cartesian grid over levels x aggregators x seeds

Every run directory receives config.resolved, a full snapshot of the
resolved flat config; rerunning any subcommand from the snapshot
reproduces the directory's deterministic outputs byte for byte (wall
times live in timing.jsonl, which is the one file allowed to differ).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .config import ExperimentConfig
from .data import DatasetManifest, load_manifest, modality_stats, save_manifest, synth_generate
from .metrics import evaluate
from .model import save_checkpoint
from .partitioner import ClientPartition, build_scenario, save_partition
from .promptgen import CRISIS_MMD, HATEFUL_MEMES, TaskSpec, export_partition
from .server import RunLog, local_baseline, run_rounds, save_server_state


def _load_data(cfg: ExperimentConfig) -> tuple[DatasetManifest, DatasetManifest]:
    if cfg["data.source"] == "synth":
        synth = cfg.synth_config()
        train = synth_generate(synth, split="train")
        test = synth_generate(synth, split="test", samples_per_class=int(cfg["synth.test_samples_per_class"]))
        return train, test
    train = load_manifest(str(cfg["data.train_manifest"]))
    test = load_manifest(str(cfg["data.test_manifest"]))
    return train, test


def _build_partition(cfg: ExperimentConfig, train: DatasetManifest) -> ClientPartition:
    return build_scenario(train, cfg.scenario_spec())


def _task_for(cfg: ExperimentConfig, manifest: DatasetManifest) -> TaskSpec:
    if manifest.class_count == len(HATEFUL_MEMES.options):
        return HATEFUL_MEMES
    if manifest.class_count == len(CRISIS_MMD.options):
        return CRISIS_MMD
    options = tuple(f"class-{c}" for c in range(manifest.class_count))
    return TaskSpec(question="Which class does the content belong to", options=options)


def _prepare_out(cfg: ExperimentConfig) -> Path:
    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_snapshot(out / "config.resolved")
    return out


def cmd_partition(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    train, test = _load_data(cfg)
    partition = _build_partition(cfg, train)
    if cfg["data.source"] == "synth":
        save_manifest(train, out / "train_manifest.jsonl")
        save_manifest(test, out / "test_manifest.jsonl")
    save_partition(partition, cfg.scenario_spec(), out / "partition.json")
    modality_stats(partition, train).to_csv(out / "counts.csv")
    print(f"partition: {partition.total()} samples over {len(partition.clients)} clients -> {out}")
    return 0


def cmd_train(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    train, test = _load_data(cfg)
    partition = _build_partition(cfg, train)
    model_cfg = cfg.model_config(tuple(m.dim for m in train.modalities), train.class_count)
    timings: list[float] = []
    log, state, base = run_rounds(cfg.fl_config(), model_cfg, partition, train, test, timings=timings)
    log.write(out / "runlog.jsonl")
    save_server_state(out / "server_state.bin", state)
    save_checkpoint(out / "model.bin", base, state.global_delta)
    with open(out / "timing.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for i, dt in enumerate(timings, start=1):
            fh.write(json.dumps({"round": i, "wall_ms": round(dt * 1000.0, 3)}) + "\n")
    final = log.final_eval()
    print(f"train: {cfg['fl.aggregator']} x {cfg['fl.rounds']} rounds, final {final['metric']}={final['value']:.4f} acc={final['accuracy']:.4f} -> {out}")
    return 0


def cmd_baseline(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    train, test = _load_data(cfg)
    partition = _build_partition(cfg, train)
    model_cfg = cfg.model_config(tuple(m.dim for m in train.modalities), train.class_count)
    local_cfg = cfg.local_config()
    local_cfg = type(local_cfg)(
        epochs=int(cfg["baseline.epochs"]),
        batch_size=local_cfg.batch_size,
        lr=local_cfg.lr,
        warmup_ratio=local_cfg.warmup_ratio,
    )
    result = local_baseline(
        model_cfg, partition, train, test,
        local_cfg=local_cfg, metric=str(cfg["metric"]),
        seed=cfg.fl_config().seed,
    )
    with open(out / "baseline.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(result, ensure_ascii=False, indent=1, allow_nan=False) + "\n")
    print(f"baseline: mean value {result['mean_value']:.4f}, mean accuracy {result['mean_accuracy']:.4f} -> {out}")
    return 0


def cmd_export_instructions(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    train, _ = _load_data(cfg)
    partition = _build_partition(cfg, train)
    task = _task_for(cfg, train)
    count = export_partition(partition, train, task, cfg.agnostic, out / "instructions")
    print(f"export-instructions: {count} client files -> {out / 'instructions'}")
    return 0


REPORT_COLUMNS = ["run", "scenario", "level", "aggregator", "metric", "value", "seed"]


def collect_report_rows(run_dirs: list[Path]) -> list[list[object]]:
    rows = []
    for run_dir in run_dirs:
        snapshot = run_dir / "config.resolved"
        runlog = run_dir / "runlog.jsonl"
        if not snapshot.exists() or not runlog.exists():
            raise ValueError(f"{run_dir}: missing config.resolved or runlog.jsonl")
        cfg = ExperimentConfig.from_sources(snapshot)
        final = RunLog.read(runlog).final_eval()
        if final is None:
            raise ValueError(f"{run_dir}: runlog has no evaluation records")
        spec = cfg.scenario_spec()
        rows.append([run_dir.name, spec.kind, spec.level(), cfg["fl.aggregator"], final["metric"], final["value"], cfg.seed])
    return rows


def write_report(rows: list[list[object]], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)


def cmd_report(run_dirs: list[str], out_path: str) -> int:
    rows = collect_report_rows([Path(d) for d in run_dirs])
    write_report(rows, Path(out_path))
    print(f"report: {len(rows)} rows -> {out_path}")
    return 0


_LEVEL_KEY = {
    "aligned": "scenario.alpha",
    "missing": "scenario.beta",
    "cross": "scenario.image_only_clients",
    "hybrid": "scenario.keep_prob",
}


def cmd_sweep(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    kind = str(cfg["scenario.kind"])
    levels = list(cfg["sweep.levels"]) or [cfg.values[_LEVEL_KEY[kind]]]
    aggregators = list(cfg["sweep.aggregators"]) or [cfg["fl.aggregator"]]
    seeds = list(cfg["sweep.seeds"]) or [cfg.seed]
    run_dirs = []
    for level in levels:
        for agg in aggregators:
            for seed in seeds:
                level_value = int(level) if kind == "cross" else float(level)
                name = f"{kind}-{level_value}-{agg}-s{seed}"
                sub = cfg.with_values(
                    {
                        _LEVEL_KEY[kind]: level_value,
                        "fl.aggregator": agg,
                        "seed": int(seed),
                        "out_dir": str(Path(str(cfg.values["out_dir"])) / name),
                        "sweep.levels": [],
                        "sweep.aggregators": [],
                        "sweep.seeds": [],
                    }
                )
                cmd_train(sub)
                run_dirs.append(sub.out_dir())
    rows = collect_report_rows(run_dirs)
    write_report(rows, out / "report.csv")
    print(f"sweep: {len(run_dirs)} runs -> {out / 'report.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedmm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE", help="override one config key")

    for name in ("partition", "train", "baseline", "export-instructions", "sweep"):
        add_config_args(sub.add_parser(name))
    report = sub.add_parser("report")
    report.add_argument("run_dirs", nargs="+", help="run directories holding config.resolved and runlog.jsonl")
    report.add_argument("--out", required=True, help="output CSV path")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.run_dirs, args.out)
        cfg = ExperimentConfig.from_sources(args.config, args.overrides)
        handler = {
            "partition": cmd_partition,
            "train": cmd_train,
            "baseline": cmd_baseline,
            "export-instructions": cmd_export_instructions,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(cfg)
    except (ValueError, OSError) as err:
        print(f"fedmm {args.command}: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
