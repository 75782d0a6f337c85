import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fedmm
from conftest import tiny_manifest
from fedmm.cli import build_parser, run, summary_lines, sweep_configs
from fedmm.config import SCHEMA, ExperimentConfig, parse_value
from fedmm.data import load_manifest, save_manifest
from fedmm.partitioner import load_partition
from test_data import rewrite_line

FAST_KEYS = [
    "synth.samples_per_class = 6",
    "synth.test_samples_per_class = 4",
    "synth.dims = 4,3",
    "synth.classes = 2",
    "scenario.kind = aligned",
    "scenario.clients = 3",
    "scenario.alpha = 0.5",
    "model.hidden = 6",
    "model.encoder_depth = 1",
    "model.trunk_depth = 1",
    "model.rank = 2",
    "fl.rounds = 2",
    "fl.clients_per_round = 2",
    "fl.eval_every = 2",
    "local.epochs = 1",
    "local.batch_size = 8",
    "seed = 3",
]


def write_config(path, extra=()):
    lines = FAST_KEYS + list(extra)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("lineno,key", [(1, "modalities"), (2, "label")])
def test_malformed_manifest_exits_2(tmp_path, capsys, lineno, key):
    bad, good = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_manifest(tiny_manifest(split="train"), bad)
    save_manifest(tiny_manifest(split="test"), good)
    rewrite_line(bad, lineno, lambda obj: json.dumps({k: v for k, v in obj.items() if k != key}))
    argv = ["train", "--set", "data.source=manifest", "--set", f"data.train_manifest={bad}",
            "--set", f"data.test_manifest={good}", "--set", f"out_dir={tmp_path / 'out'}"]
    assert run(argv) == 2
    assert f"{bad}:{lineno}: no key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_manifest_modality_without_dim_exits_2(tmp_path, capsys):
    bad, good = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_manifest(tiny_manifest(split="train"), bad)
    save_manifest(tiny_manifest(split="test"), good)
    rewrite_line(bad, 1, lambda obj: json.dumps({**obj, "modalities": [{"name": "image"}, {"name": "text", "dim": 3}]}))
    argv = ["train", "--set", "data.source=manifest", "--set", f"data.train_manifest={bad}",
            "--set", f"data.test_manifest={good}", "--set", f"out_dir={tmp_path / 'out'}"]
    assert run(argv) == 2
    assert f"{bad}:1: modalities[0]: no key 'dim'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_partition_conserves_samples(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {tmp_path / 'out'}"])
    assert run(["partition", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "config.resolved").exists()
    train = load_manifest(out / "train_manifest.jsonl")
    spec, partition = load_partition(out / "partition.json")
    assert partition.total() == len(train.samples) == 12
    assert spec.kind == "aligned"
    with open(out / "counts.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["client", "class", "pattern", "count"]
    total = sum(int(row[3]) for row in rows[1:])
    assert total == 12
    assert "3 clients" in capsys.readouterr().out


def test_train_twice_identical_bytes(tmp_path):
    names = ("runlog.jsonl", "server_state.bin", "model.bin")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_config(tmp_path / f"{tag}.cfg", [f"out_dir = {out}"])
        assert run(["train", "--config", cfg]) == 0
        outs.append(out)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert (outs[0] / "timing.jsonl").exists()


def test_snapshot_replays_run_exactly(tmp_path):
    first = tmp_path / "first"
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {first}"])
    assert run(["train", "--config", cfg]) == 0
    replay = tmp_path / "replay"
    assert run([
        "train", "--config", str(first / "config.resolved"),
        "--set", f"out_dir={replay}",
    ]) == 0
    for name in ("runlog.jsonl", "server_state.bin", "model.bin"):
        assert (first / name).read_bytes() == (replay / name).read_bytes()


# sha256 of the three deterministic outputs of the default config cut to
# ten rounds, and of the cross-modality variant that runs the proximal
# term under adagrad. Unlike the rerun tests above, these catch a numeric
# change between commits; a change that alters the bytes on purpose must
# update them and say why.
GOLDEN_TRAIN = {
    "default": (
        [],
        {
            "runlog.jsonl": "ab706e9821afdbed164a81e9af182f1e0eb94f00d96c37a08dbb05dfffc78551",
            "server_state.bin": "9dbbc86f8d097e46f7d1964008783b0c713a95e6208427c8ebf3f23612c5d588",
            "model.bin": "b93e6b1441879302de39d23a4fa07d62ecbf7aa67bea088e6e1ff1bf45b329cf",
        },
    ),
    "cross_adagrad": (
        ["scenario.kind=cross", "fl.aggregator=adagrad"],
        {
            "runlog.jsonl": "d529bb492b7a16448a7e0f95974265a0199b90ddbf3a1e833a36b6312b103a30",
            "server_state.bin": "ab62b5a2c1bc2fc99c80e615fbbc603ebc3d545c64c8d60a18580e22a0d20d1b",
            "model.bin": "8649bbcdc4c77e3d7ab6ebff119ca40818fd31b891f425cfff25c4f9d801a8bc",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRAIN))
def test_train_output_hashes_pinned(tmp_path, case):
    overrides, want = GOLDEN_TRAIN[case]
    argv = ["train", "--set", "fl.rounds=10", "--set", f"out_dir={tmp_path}"]
    for item in overrides:
        argv += ["--set", item]
    assert run(argv) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want


# sha256 of baseline.json for the default config and for a hybrid one
# whose clients share shard sizes, so both lone and lockstep-group local
# training are pinned.
GOLDEN_BASELINE = {
    "default": (["baseline.epochs=2"], "322622a9daa1c74c913ffd449a429e681b795969c1b0c503b0d46f32fda4a679"),
    "hybrid": (
        [
            "scenario.kind=hybrid", "scenario.clients=12", "synth.samples_per_class=12",
            "synth.test_samples_per_class=10", "local.batch_size=2", "baseline.epochs=2",
        ],
        "e219c206f6ae8fd1d14b05ec9da614fce0f9c8f08554a9dfa77a71febadc4c3c",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_BASELINE))
def test_baseline_output_hash_pinned(tmp_path, case):
    overrides, want = GOLDEN_BASELINE[case]
    argv = ["baseline", "--set", f"out_dir={tmp_path}"]
    for item in overrides:
        argv += ["--set", item]
    assert run(argv) == 0
    assert hashlib.sha256((tmp_path / "baseline.json").read_bytes()).hexdigest() == want


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
def test_train_divergence_exits_2_without_infinity(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["train", "--set", "local.lr=50", "--set", "fl.rounds=10", "--set", f"out_dir={out}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "round" in err and "client" in err and "not finite" in err
    assert not out.exists()
    assert not (out / "runlog.jsonl").exists()
    for path in out.rglob("*"):
        assert b"Infinity" not in path.read_bytes()
        assert b"NaN" not in path.read_bytes()


def test_train_oversampling_exits_2_without_out_dir(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["train", "--set", "scenario.clients=10", "--set", "fl.clients_per_round=11", "--set", f"out_dir={out}"]) == 2
    assert "cannot sample 11 of 10" in capsys.readouterr().err
    assert not out.exists()


def test_train_does_not_touch_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg = write_config(cfg_path, [f"out_dir = {tmp_path / 'out'}"])
    before = cfg_path.read_bytes()
    assert run(["train", "--config", cfg]) == 0
    assert cfg_path.read_bytes() == before


def test_out_dir_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDMM_OUT", str(tmp_path / "root"))
    cfg = write_config(tmp_path / "run.cfg", ["out_dir = nested/run1"])
    assert run(["partition", "--config", cfg]) == 0
    assert (tmp_path / "root" / "nested" / "run1" / "partition.json").exists()


def test_baseline_writes_summary(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {out}", "baseline.epochs = 1"])
    assert run(["baseline", "--config", cfg]) == 0
    result = json.loads((out / "baseline.json").read_text(encoding="utf-8"))
    assert set(result) == {"clients", "mean_value", "mean_accuracy", "skipped"}
    assert len(result["clients"]) + len(result["skipped"]) == 3


def test_export_instructions_files(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {out}"])
    assert run(["export-instructions", "--config", cfg]) == 0
    files = sorted((out / "instructions").glob("client_*.jsonl"))
    assert len(files) == 3
    total = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    assert total == 12


def test_sweep_grid_and_report(tmp_path):
    out = tmp_path / "sweep"
    cfg = write_config(
        tmp_path / "run.cfg",
        [
            f"out_dir = {out}",
            "sweep.grid = scenario.alpha=5.0|1.0|0.5, fl.aggregator=adam|adagrad",
        ],
    )
    assert run(["sweep", "--config", cfg]) == 0
    runlogs = sorted(out.glob("*/runlog.jsonl"))
    assert len(runlogs) == 6
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "scenario", "level", "aggregator", "metric", "value", "seed", "reg"]
    assert len(rows) == 7
    aggs = {row[3] for row in rows[1:]}
    levels = {row[2] for row in rows[1:]}
    assert aggs == {"adam", "adagrad"}
    assert levels == {"5.0", "1.0", "0.5"}


def test_sweep_cells_in_grid_order_with_portable_names(tmp_path):
    cfg = ExperimentConfig.from_sources(
        None, [f"out_dir={tmp_path}", "sweep.grid=fl.aggregator=plain_avg|adam, data.train_manifest=a/b c|x"]
    )
    subs = sweep_configs(cfg)
    assert [(s["fl.aggregator"], s["data.train_manifest"]) for s in subs] == [
        ("plain_avg", "a/b c"), ("plain_avg", "x"), ("adam", "a/b c"), ("adam", "x"),
    ]
    assert [s.out_dir().name for s in subs] == [
        "fl.aggregator-plain_avg__data.train_manifest-a_b_c",
        "fl.aggregator-plain_avg__data.train_manifest-x",
        "fl.aggregator-adam__data.train_manifest-a_b_c",
        "fl.aggregator-adam__data.train_manifest-x",
    ]
    assert all(s.out_dir().parent == tmp_path and s["sweep.grid"] == [] for s in subs)
    clash = cfg.with_values({"sweep.grid": ["data.train_manifest=a/b|a b"]})
    with pytest.raises(ValueError, match="repeated"):
        sweep_configs(clash)


def test_sweep_snapshot_replays_every_run(tmp_path):
    first = tmp_path / "first"
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {first}", "sweep.grid = scenario.alpha=5.0|0.5, seed=1|2"])
    assert run(["sweep", "--config", cfg]) == 0
    replay = tmp_path / "replay"
    assert run(["sweep", "--config", str(first / "config.resolved"), "--set", f"out_dir={replay}"]) == 0
    runs = sorted(p.name for p in first.iterdir() if p.is_dir())
    assert len(runs) == 4
    assert sorted(p.name for p in replay.iterdir() if p.is_dir()) == runs
    for name in runs:
        for output in ("runlog.jsonl", "server_state.bin", "model.bin"):
            assert (first / name / output).read_bytes() == (replay / name / output).read_bytes()


def test_sweep_reg_grid_prints_paired_difference(tmp_path, capsys):
    out = tmp_path / "ablation"
    overrides = [
        "scenario.kind=cross",
        "synth.samples_per_class=20",
        "synth.test_samples_per_class=20",
        "local.epochs=3",
        "fl.rounds=4",
        "fl.eval_every=2",
        "sweep.grid=reg.enabled=true|false, seed=1|2",
        f"out_dir={out}",
    ]
    assert run(["sweep", *(arg for item in overrides for arg in ("--set", item))]) == 0
    printed = capsys.readouterr().out
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(row[7], row[6]) for row in rows] == [("true", "1"), ("true", "2"), ("false", "1"), ("false", "2")]
    value = {(row[7], row[6]): float(row[5]) for row in rows}
    diffs = [value["true", seed] - value["false", seed] for seed in ("1", "2")]
    assert diffs[0] != diffs[1]
    mean = (diffs[0] + diffs[1]) / 2
    se = abs(diffs[0] - diffs[1]) / 2  # the sample stdev of two values over sqrt(2)
    assert "reg.enabled=true: macro_f1 n=2 " in printed
    assert "reg.enabled=false: macro_f1 n=2 " in printed
    assert f"all runs: reg on-off paired n=2 {mean:+.4f} +- {se:.4f}" in printed


@pytest.mark.parametrize(
    "grid",
    [
        "fl.warp=1|2",  # unknown key
        "synth.dims=4|8",  # list key
        "seed=1|2, seed=3",  # repeated axis
        "scenario.kind=cross, scenario.image_only_clients=1|20",  # a cell with more image-only clients than clients
        "fl.clients_per_round=2|0",  # a cell that samples no client
        "",  # empty grid
    ],
)
def test_sweep_bad_grid_exits_2_without_run_dirs(tmp_path, capsys, grid):
    out = tmp_path / "sweep"
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {out}", f"sweep.grid = {grid}"])
    assert run(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fedmm sweep: ")
    assert not out.exists()
    if not grid:
        assert "fedmm train" in err


@pytest.mark.parametrize("line", ["sweep.levels = 5.0,1.0", "sweep.aggregators = adam,yogi", "sweep.seeds = 1,2"])
def test_old_sweep_keys_rejected(tmp_path, capsys, line):
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {tmp_path / 'out'}", line])
    assert run(["sweep", "--config", cfg]) == 2
    assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err


def test_readme_commands_parse():
    """Every `fedmm ...` line in the README's fenced blocks parses, and each
    config subcommand's line resolves (a sweep's every cell) without running."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    lines = [line.strip() for block in blocks for line in block.splitlines() if line.strip().startswith("fedmm ")]
    assert {shlex.split(line)[1] for line in lines} >= {"partition", "train", "baseline", "export-instructions", "sweep", "report"}
    for line in lines:
        try:
            args = build_parser().parse_args(shlex.split(line)[1:])
            if args.command != "report":
                cfg = ExperimentConfig.from_sources(args.config, args.overrides)
                if args.command == "sweep":
                    sweep_configs(cfg)
        except (SystemExit, ValueError) as err:
            pytest.fail(f"README command {line!r}: {err!r}")


def test_readme_configuration_block_loads(tmp_path):
    """The README's `## Configuration` block, saved as a file, loads and
    sets each key it names to the value written there."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = re.search(r"^```[^\n]*\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    cfg = ExperimentConfig.from_sources(path)
    pairs = [line.partition("=") for line in block.splitlines() if line.strip() and not line.startswith("#")]
    assert len(pairs) >= 10
    for key, _, value in pairs:
        assert cfg[key.strip()] == parse_value(SCHEMA[key.strip()].kind, value)


def test_summary_groups_by_config_apart_from_seed():
    def make(value, *overrides):
        return ExperimentConfig.from_sources(None, list(overrides)), {"metric": "macro_f1", "value": value}

    runs = [
        make(0.5, "scenario.kind=cross", "seed=1"),
        make(0.7, "scenario.kind=cross", "seed=2"),
        make(0.4, "scenario.kind=missing", "seed=1", "reg.enabled=false"),
        make(0.6, "scenario.kind=missing", "seed=1"),
        make(0.8, "scenario.kind=missing", "seed=2"),
    ]
    # scenario keys a kind does not read never label its group
    assert summary_lines(runs) == [
        "scenario.kind=cross scenario.image_only_clients=5 reg.enabled=true: macro_f1 n=2 0.6000 +- 0.1000",
        "scenario.kind=missing scenario.beta=0.5 reg.enabled=false: macro_f1 n=1 0.4000 +- n/a",
        "scenario.kind=missing scenario.beta=0.5 reg.enabled=true: macro_f1 n=2 0.7000 +- 0.1000",
        "scenario.kind=missing scenario.beta=0.5: reg on-off paired n=1 +0.2000 +- n/a",
    ]


def test_report_reads_train_dirs(tmp_path, capsys):
    dirs = []
    for seed in (1, 2):
        out = tmp_path / f"run{seed}"
        cfg = write_config(tmp_path / f"{seed}.cfg", [f"out_dir = {out}", f"seed = {seed}"])
        assert run(["train", "--config", cfg]) == 0
        dirs.append(str(out))
    report = tmp_path / "report.csv"
    assert run(["report", *dirs, "--out", str(report)]) == 0
    with open(report, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert {row[6] for row in rows[1:]} == {"1", "2"}
    assert {row[7] for row in rows[1:]} == {"true"}
    values = [float(row[5]) for row in rows[1:]]
    assert f"all runs: roc_auc n=2 {sum(values) / 2:.4f} +- {abs(values[0] - values[1]) / 2:.4f}" in capsys.readouterr().out


def test_unknown_key_fails_with_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", ["fl.warp_speed = 9"])
    assert run(["train", "--config", cfg]) == 2
    assert "fl.warp_speed" in capsys.readouterr().err


def test_invalid_value_fails(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", ["fl.aggregator = sgd"])
    assert run(["train", "--config", cfg]) == 2
    assert "aggregator" in capsys.readouterr().err


def test_missing_config_file_fails(tmp_path, capsys):
    assert run(["train", "--config", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()


def test_bad_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run(["transmogrify"])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {tmp_path / 'out'}"])
    # the child imports the same fedmm as this process, installed or not
    src = str(Path(fedmm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "fedmm.cli", "partition", "--config", cfg],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "partition.json").exists()
