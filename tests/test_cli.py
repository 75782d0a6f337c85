import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedmm
from fedmm.cli import run
from fedmm.data import load_manifest
from fedmm.partitioner import load_partition

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


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
def test_train_divergence_exits_2_without_infinity(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["train", "--set", "local.lr=50", "--set", "fl.rounds=10", "--set", f"out_dir={out}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "round" in err and "client" in err and "not finite" in err
    assert not (out / "runlog.jsonl").exists()
    for path in out.rglob("*"):
        assert b"Infinity" not in path.read_bytes()
        assert b"NaN" not in path.read_bytes()


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
            "sweep.levels = 5.0,1.0,0.5",
            "sweep.aggregators = adam,adagrad",
        ],
    )
    assert run(["sweep", "--config", cfg]) == 0
    runlogs = sorted(out.glob("*/runlog.jsonl"))
    assert len(runlogs) == 6
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "scenario", "level", "aggregator", "metric", "value", "seed"]
    assert len(rows) == 7
    aggs = {row[3] for row in rows[1:]}
    levels = {row[2] for row in rows[1:]}
    assert aggs == {"adam", "adagrad"}
    assert levels == {"5.0", "1.0", "0.5"}


def test_report_reads_train_dirs(tmp_path):
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
