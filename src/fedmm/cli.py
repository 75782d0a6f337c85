"""Command-line entry points.

Subcommands:
  partition            build a partition, write it with its count table
  train                run the federated loop, write runlog and checkpoints
  baseline             isolated per-client training, write baseline.json
  export-instructions  render per-client instruction JSONL files
  report               collect run directories into one CSV table, print
                       per-group mean +- SE and paired reg on-off differences
  sweep                train every cell of sweep.grid, the cartesian product of
                       KEY=V1|V2|... axes over any scalar config keys, then report

Every run directory receives config.resolved, a full snapshot of the
resolved flat config; rerunning any subcommand from the snapshot
reproduces the directory's deterministic outputs byte for byte (wall
times live in timing.jsonl, which is the one file allowed to differ).
Every command starts with one set-up: it loads the data, builds the
test set with the metric that will score it, partitions the train set,
builds the model config and draws round 1's client sample. A command
makes its directory only after its set-up and training have succeeded,
so a failed run leaves no directory behind. `fedmm sweep` runs every
cell's set-up first, so a cell that cannot start stops the sweep before
any directory exists.
"""

from __future__ import annotations

import argparse
import itertools
import re
import statistics
import sys
from pathlib import Path

from .config import SCHEMA, ExperimentConfig, render_value
from .data import SPLITS, DatasetManifest, load_manifest, modality_stats, save_manifest, synth_generate
from .metrics import EvalSet
from .model import ModelConfig, save_checkpoint
from .partitioner import ClientPartition, build_scenario, save_partition
from .promptgen import CRISIS_MMD, HATEFUL_MEMES, TaskSpec, export_partition
from .server import RunLog, local_baseline, run_rounds, sample_clients, save_server_state
from .tensorio import dumps, write_csv, write_lines


def _layout(manifest: DatasetManifest) -> str:
    return f"{', '.join(f'{m.name} ({m.dim})' for m in manifest.modalities)} and {manifest.class_count} classes"


def _setup(cfg: ExperimentConfig) -> tuple[DatasetManifest, EvalSet, ClientPartition, ModelConfig]:
    """A run's train manifest, its test set ready to score, its partition
    of the train set and its model config; it also draws round 1's client
    sample. So every command rejects, before it makes a directory, what
    any command would: a test manifest whose modalities or class count
    differ from the train manifest's, a metric the test manifest cannot
    score, a model config the train manifest's dims cannot carry, an
    enabled regularizer whose margin masks out every depth of that model,
    and more clients per round than there are nonempty clients."""
    if cfg["data.source"] == "synth":
        train, test = (synth_generate(cfg.synth_config(split), split=split) for split in SPLITS)
    else:
        train = load_manifest(str(cfg["data.train_manifest"]))
        test = load_manifest(str(cfg["data.test_manifest"]))
    if (test.modalities, test.class_count) != (train.modalities, train.class_count):
        raise ValueError(f"the test manifest has {_layout(test)}, the train manifest {_layout(train)}")
    partition = build_scenario(train, cfg.scenario_spec())
    fl = cfg.fl_config()
    sample_clients(partition.sizes(), fl.clients_per_round, 1, fl.seed)
    model_cfg = cfg.model_config(train)
    if fl.reg.enabled and 2 * fl.reg.margin >= model_cfg.depth:
        raise ValueError(f"reg.margin {fl.reg.margin} masks out all {model_cfg.depth} depths of the model; the regularizer would be inert")
    return train, EvalSet(test, str(cfg["metric"])), partition, model_cfg


def _task_for(manifest: DatasetManifest) -> TaskSpec:
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
    train, test, partition, _ = _setup(cfg)
    out = _prepare_out(cfg)
    if cfg["data.source"] == "synth":
        save_manifest(train, out / "train_manifest.jsonl")
        save_manifest(test.manifest, out / "test_manifest.jsonl")
    save_partition(partition, train, cfg.scenario_spec(), out / "partition.json")
    modality_stats(partition, train).to_csv(out / "counts.csv")
    print(f"partition: {partition.total()} samples over {len(partition.sizes())} clients -> {out}")
    return 0


def cmd_train(cfg: ExperimentConfig) -> int:
    train, test, partition, model_cfg = _setup(cfg)
    timings: list[float] = []
    log, state, base = run_rounds(cfg.fl_config(), model_cfg, partition, train, test, timings=timings)
    out = _prepare_out(cfg)
    log.write(out / "runlog.jsonl")
    save_server_state(out / "server_state.bin", state)
    save_checkpoint(out / "model.bin", base, state.global_delta)
    write_lines(out / "timing.jsonl", (dumps({"round": i, "wall_ms": round(dt * 1000.0, 3)}) for i, dt in enumerate(timings, 1)))
    final = log.final_eval()
    print(f"train: {cfg['fl.aggregator']} x {cfg['fl.rounds']} rounds, final {final['metric']}={final['value']:.4f} acc={final['accuracy']:.4f} -> {out}")
    return 0


def cmd_baseline(cfg: ExperimentConfig) -> int:
    train, test, partition, model_cfg = _setup(cfg)
    result = local_baseline(model_cfg, partition, train, test, local_cfg=cfg.baseline_config(), seed=cfg.fl_config().seed)
    out = _prepare_out(cfg)
    write_lines(out / "baseline.json", [dumps(result, indent=1)])
    print(f"baseline: mean value {result['mean_value']:.4f}, mean accuracy {result['mean_accuracy']:.4f} -> {out}")
    return 0


def cmd_export_instructions(cfg: ExperimentConfig) -> int:
    train, _, partition, _ = _setup(cfg)
    task = _task_for(train)
    out = _prepare_out(cfg)
    count = export_partition(partition, train, task, cfg["prompt.agnostic"], out / "instructions")
    print(f"export-instructions: {count} client files -> {out / 'instructions'}")
    return 0


REPORT_COLUMNS = ["run", "scenario", "level", "aggregator", "metric", "value", "seed", "reg"]


def _settings(cfg: ExperimentConfig) -> dict[str, str]:
    """A run's rendered config apart from its seed and where it was written;
    scenario keys the run's kind does not read are left out."""
    scenario = cfg.scenario_spec().to_json_obj()
    return {
        key: render_value(spec.kind, cfg[key])
        for key, spec in SCHEMA.items()
        if key not in ("seed", "out_dir", "sweep.grid")
        and (not key.startswith("scenario.") or key.removeprefix("scenario.") in scenario)
    }


def _mean_se(values: list[float], sign: str = "") -> str:
    se = f"{statistics.stdev(values) / len(values) ** 0.5:.4f}" if len(values) > 1 else "n/a"
    return f"n={len(values)} {statistics.fmean(values):{sign}.4f} +- {se}"


def summary_lines(runs: list[tuple[ExperimentConfig, dict]]) -> list[str]:
    """Mean +- standard error of the final value per group of runs whose
    configs differ only in seed (one run counted per seed), labelled by the
    keys that vary between groups; then, for each pair of groups that
    differ only in reg.enabled, the mean +- SE of the on-minus-off
    difference over the seeds both ran."""
    settings = [_settings(cfg) for cfg, _ in runs]
    varying = [key for key in SCHEMA if len({s.get(key) for s in settings}) > 1]
    groups: dict[tuple, dict[int, dict]] = {}
    for (cfg, final), setting in zip(runs, settings):
        groups.setdefault(tuple((key, setting.get(key)) for key in varying), {})[cfg.seed] = final

    def label(group: tuple, skip: str = "") -> str:
        return " ".join(f"{key}={value}" for key, value in group if value is not None and key != skip) or "all runs"

    lines = []
    for group, by_seed in groups.items():
        metric = next(iter(by_seed.values()))["metric"]
        lines.append(f"{label(group)}: {metric} {_mean_se([final['value'] for final in by_seed.values()])}")
    for group, on in groups.items():
        if ("reg.enabled", "true") not in group:
            continue
        off = groups.get(tuple((key, "false" if key == "reg.enabled" else value) for key, value in group), {})
        diffs = [final["value"] - off[seed]["value"] for seed, final in on.items() if seed in off]
        if diffs:
            lines.append(f"{label(group, skip='reg.enabled')}: reg on-off paired {_mean_se(diffs, sign='+')}")
    return lines


def cmd_report(run_dirs: list[Path], out_path: Path) -> int:
    runs, rows = [], []
    for run_dir in run_dirs:
        snapshot = run_dir / "config.resolved"
        runlog = run_dir / "runlog.jsonl"
        if not snapshot.exists() or not runlog.exists():
            raise ValueError(f"{run_dir}: missing config.resolved or runlog.jsonl")
        final = RunLog.read(runlog).final_eval()
        if final is None:
            raise ValueError(f"{run_dir}: runlog has no evaluation records")
        cfg = ExperimentConfig.from_sources(snapshot)
        spec = cfg.scenario_spec()
        runs.append((cfg, final))
        rows.append([run_dir.name, spec.kind, spec.level(), cfg["fl.aggregator"], final["metric"], final["value"],
                     cfg.seed, render_value("bool", cfg["reg.enabled"])])
    write_csv(out_path, REPORT_COLUMNS, rows)
    for line in summary_lines(runs):
        print(f"  {line}")
    print(f"report: {len(runs)} rows -> {out_path}")
    return 0


def sweep_configs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """One validated config per cell of `sweep.grid`, first axis outermost,
    each writing to a directory under `out_dir` named by its axis values."""
    axes = cfg.sweep_axes()
    if not axes:
        raise ValueError("sweep.grid is empty; run a single config with `fedmm train`")
    root = Path(str(cfg["out_dir"]))
    subs: dict[str, ExperimentConfig] = {}
    for cell in itertools.product(*(values for _, values in axes)):
        updates = {key: value for (key, _), value in zip(axes, cell)}
        name = "__".join(f"{key}-{render_value(SCHEMA[key].kind, value)}" for key, value in updates.items())
        name = re.sub(r"[^A-Za-z0-9._-]", "_", name)  # POSIX portable filename characters only
        if name in subs or len(name) > 255:
            raise ValueError(f"sweep.grid: run directory name {name!r} of cell {updates} is repeated or too long")
        subs[name] = cfg.with_values({**updates, "out_dir": str(root / name), "sweep.grid": []})
    return list(subs.values())


def cmd_sweep(cfg: ExperimentConfig) -> int:
    subs = sweep_configs(cfg)
    for sub in subs:
        _setup(sub)
    out = _prepare_out(cfg)
    for sub in subs:
        cmd_train(sub)
    return cmd_report([sub.out_dir() for sub in subs], out / "report.csv")


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
            return cmd_report([Path(d) for d in args.run_dirs], Path(args.out))
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
