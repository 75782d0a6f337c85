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
from hypothesis import given, settings, strategies as st

import fedmm
from conftest import tiny_manifest
from fedmm.cli import build_parser, run, summary_lines, sweep_configs
from fedmm.config import SCHEMA, ExperimentConfig, parse_value
from fedmm.data import load_manifest, save_manifest
from test_config import LINE_BREAKS
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
    "reg.margin = 1",  # 2 * margin must stay below the model's 3 depths
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


@pytest.mark.parametrize(
    "test_manifest,keep,message",
    [
        ({}, lambda record: False, "empty test manifest"),
        ({}, lambda record: record["label"] == 0, "roc_auc needs both classes, and the test manifest has no positive samples"),
        ({"class_count": 3}, lambda record: True,
         "the test manifest has image (4), text (3) and 3 classes, the train manifest image (4), text (3) and 2 classes"),
        ({"dims": (5, 3)}, lambda record: True,
         "the test manifest has image (5), text (3) and 2 classes, the train manifest image (4), text (3) and 2 classes"),
    ],
    ids=["header-only", "binary-label-0-only", "three-classes", "other-dims"],
)
def test_manifest_test_set_the_run_cannot_score_exits_2(tmp_path, capsys, test_manifest, keep, message):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_manifest(tiny_manifest(class_count=2, split="train"), train)
    save_manifest(tiny_manifest(**{"class_count": 2, "split": "test", **test_manifest}), test)
    header, *records = test.read_text(encoding="utf-8").splitlines(keepends=True)
    test.write_text("".join([header, *(line for line in records if keep(json.loads(line)))]), encoding="utf-8")
    for command in ("partition", "train", "baseline", "export-instructions"):
        argv = [command, "--set", "data.source=manifest", "--set", f"data.train_manifest={train}",
                "--set", f"data.test_manifest={test}", "--set", "model.rank=2", "--set", f"out_dir={tmp_path / 'out'}"]
        assert run(argv) == 2, command
        assert f"fedmm {command}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim", [0, -1])
def test_manifest_modality_dim_below_one_exits_2(tmp_path, capsys, dim):
    bad, good = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_manifest(tiny_manifest(split="train"), bad)
    save_manifest(tiny_manifest(split="test"), good)
    rewrite_line(bad, 1, lambda obj: json.dumps({**obj, "modalities": [{"name": "image", "dim": dim}, {"name": "text", "dim": 3}]}))
    argv = ["partition", "--set", "data.source=manifest", "--set", f"data.train_manifest={bad}",
            "--set", f"data.test_manifest={good}", "--set", f"out_dir={tmp_path / 'out'}"]
    assert run(argv) == 2
    assert f"modality 'image' dim must be >= 1, got {dim}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["partition", "train"])
@pytest.mark.parametrize("kind", ["missing", "cross", "hybrid"])
def test_modality_scenario_on_manifest_with_a_missing_modality_exits_2(tmp_path, capsys, command, kind):
    """The non-aligned scenarios damage modalities themselves, so they need
    every record to carry every modality; aligned takes the manifest as it is."""
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_manifest(tiny_manifest(split="train"), train)
    save_manifest(tiny_manifest(split="test"), test)
    rewrite_line(train, 5, lambda obj: json.dumps({**obj, "features": {"image": obj["features"]["image"]}}))
    sid = load_manifest(train).ids[3]
    argv = [command, "--set", "data.source=manifest", "--set", f"data.train_manifest={train}",
            "--set", f"data.test_manifest={test}", "--set", "model.rank=2", "--set", f"out_dir={tmp_path / 'out'}"]
    assert run([*argv, "--set", f"scenario.kind={kind}"]) == 2
    err = capsys.readouterr().err
    assert "needs a fully aligned" in err and f"sample {sid!r}" in err
    assert not (tmp_path / "out").exists()
    if command == "partition":
        assert run(argv) == 0


@pytest.mark.parametrize("command", ["partition", "train"])
def test_cross_scenario_with_three_modalities_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--set", "scenario.kind=cross", "--set", "synth.modalities=a,b,c", "--set", "synth.dims=4,4,4",
            "--set", f"out_dir={out}"]
    assert run(argv) == 2
    assert "needs exactly 2 modalities, got 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,overrides,name",
    [
        ("train", ["synth.modalities=image,"], ""),
        ("partition", ["synth.modalities=image,", "scenario.kind=missing"], ""),
        ("partition", ["synth.modalities=a,b,a+b", "synth.dims=4,4,4"], "a+b"),
    ],
    ids=["train-empty-name", "partition-missing-empty-name", "partition-plus-in-name"],
)
def test_modality_name_that_is_empty_or_holds_plus_exits_2(tmp_path, capsys, command, overrides, name):
    out = tmp_path / "out"
    argv = [command, *(arg for item in [*overrides, f"out_dir={out}"] for arg in ("--set", item))]
    assert run(argv) == 2
    assert f"fedmm {command}: modality name {name!r} is empty or holds '+'" in capsys.readouterr().err
    assert not out.exists()


_DEGENERATE_DRAW = "alpha=1e+308 draws degenerate Dirichlet shares for class 0"
_NOT_BINARY = "roc_auc needs a binary test manifest, got 4 classes"
_OVERSAMPLED = "cannot sample 11 of 10 nonempty clients"
_INERT_MARGIN = "reg.margin 4 masks out all 8 depths of the model; the regularizer would be inert"


@pytest.mark.parametrize(
    "command,override,message",
    [
        ("export-instructions", "synth.classes=27", "more options than letters"),
        ("partition", "scenario.alpha=1e308", _DEGENERATE_DRAW),
        ("baseline", "scenario.alpha=1e308", _DEGENERATE_DRAW),
        ("export-instructions", "scenario.alpha=1e308", _DEGENERATE_DRAW),
        ("partition", "model.rank=0", "rank must be >= 1, got 0"),
        ("partition", "model.rank=5", "rank 5 exceeds fan of layer 'head' (4x32)"),
        ("export-instructions", "model.rank=5", "rank 5 exceeds fan of layer 'head' (4x32)"),
        ("partition", "baseline.epochs=-1", "epochs must be >= 0, got -1"),
        ("partition", "synth.test_samples_per_class=0", "samples_per_class must be >= 1"),
        ("partition", "metric=roc_auc", _NOT_BINARY),
        ("baseline", "metric=roc_auc", _NOT_BINARY),
        ("export-instructions", "metric=roc_auc", _NOT_BINARY),
        ("partition", "fl.clients_per_round=11", _OVERSAMPLED),
        ("baseline", "fl.clients_per_round=11", _OVERSAMPLED),
        ("train", "fl.clients_per_round=11", _OVERSAMPLED),
        ("partition", "fl.server_lr=0", "server_lr must be > 0, got 0.0"),
        ("partition", "reg.margin=4", _INERT_MARGIN),
        ("train", "reg.margin=4", _INERT_MARGIN),
        ("baseline", "reg.margin=4", _INERT_MARGIN),
        ("export-instructions", "reg.margin=4", _INERT_MARGIN),
    ],
    ids=["export-instructions-27-classes", "partition-alpha-1e308", "baseline-alpha-1e308", "export-instructions-alpha-1e308",
         "partition-rank-0", "partition-rank-5", "export-instructions-rank-5", "partition-baseline-epochs--1",
         "partition-test-samples-0", "partition-metric-roc_auc", "baseline-metric-roc_auc",
         "export-instructions-metric-roc_auc", "partition-clients-per-round-11", "baseline-clients-per-round-11",
         "train-clients-per-round-11", "partition-server-lr-0", "partition-reg-margin-4", "train-reg-margin-4",
         "baseline-reg-margin-4", "export-instructions-reg-margin-4"],
)
def test_command_that_cannot_succeed_exits_2_without_out_dir(tmp_path, capsys, command, override, message):
    out = tmp_path / "out"
    assert run([command, "--set", override, "--set", f"out_dir={out}"]) == 2
    assert f"fedmm {command}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_inert_margin_is_accepted_with_the_regularizer_off(tmp_path):
    out = tmp_path / "out"
    assert run(["partition", "--set", "reg.margin=4", "--set", "reg.enabled=false", "--set", f"out_dir={out}"]) == 0
    assert out.is_dir()


def test_partition_conserves_samples(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", [f"out_dir = {tmp_path / 'out'}"])
    assert run(["partition", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "config.resolved").exists()
    train = load_manifest(out / "train_manifest.jsonl")
    with open(out / "partition.json", encoding="utf-8") as fh:
        saved = json.load(fh)
    assert sum(len(entry["samples"]) for entry in saved["clients"]) == len(train) == 12
    assert saved["spec"]["kind"] == "aligned"
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


TINY = ["synth.samples_per_class=4", "synth.test_samples_per_class=2", "scenario.clients=3"]
# Six clients of sizes [0, 4, 0, 7, 5, 0]: empty clients first, in the
# middle and last. Under missing, clients 1, 3 and 4 are partially
# damaged, so their beta and gamma are fractions of a modality count.
TINY_EMPTY = [*TINY[:2], "scenario.clients=6", "scenario.alpha=0.1", "seed=46"]
TINY_EMPTY_MISSING = [*TINY_EMPTY, "scenario.kind=missing", "scenario.beta=0.3"]

# sha256 of the three deterministic outputs of the default config cut to
# ten rounds, of the cross-modality variant that runs the proximal term
# under adagrad, and of a missing-modality run with empty clients. Unlike
# the rerun tests above, these catch a numeric change between commits; a
# change that alters the bytes on purpose must update them and say why.
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
    "tiny_empty_missing": (
        TINY_EMPTY_MISSING,
        {
            "runlog.jsonl": "a284f5898ad5290a70125ea255164e2e6e1b3ef285ad52ee4a3b6a510187266a",
            "server_state.bin": "ecd18c348abd6ffb4df3e2c8cdba272c182d63e435d6bf2d7437b5b9fc628c8c",
            "model.bin": "e46583b451d3f4f204bad74a347d534e669b846df677ebd4d7c40862b8a952b5",
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


# sha256 of baseline.json for the default config, for a hybrid one whose
# clients share shard sizes, so both lone and lockstep-group local
# training are pinned, and for a missing-modality one with empty clients.
GOLDEN_BASELINE = {
    "default": (["baseline.epochs=2"], "322622a9daa1c74c913ffd449a429e681b795969c1b0c503b0d46f32fda4a679"),
    "hybrid": (
        [
            "scenario.kind=hybrid", "scenario.clients=12", "synth.samples_per_class=12",
            "synth.test_samples_per_class=10", "local.batch_size=2", "baseline.epochs=2",
        ],
        "e219c206f6ae8fd1d14b05ec9da614fce0f9c8f08554a9dfa77a71febadc4c3c",
    ),
    "tiny_empty_missing": (TINY_EMPTY_MISSING, "57845cc1f9991223cbb67c0f6022a601ef893feb46f27e6c767dd9ece3294025"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_BASELINE))
def test_baseline_output_hash_pinned(tmp_path, case):
    overrides, want = GOLDEN_BASELINE[case]
    argv = ["baseline", "--set", f"out_dir={tmp_path}"]
    for item in overrides:
        argv += ["--set", item]
    assert run(argv) == 0
    assert hashlib.sha256((tmp_path / "baseline.json").read_bytes()).hexdigest() == want


TINY_MISSING = [*TINY, "scenario.kind=missing", "scenario.beta=0.3"]
DATA_CASES = {
    "default": [],
    "tiny_missing": TINY_MISSING,
    "tiny_cross": [*TINY, "scenario.kind=cross", "scenario.image_only_clients=1"],
    "tiny_hybrid": [*TINY, "scenario.kind=hybrid", "scenario.keep_prob=0.5"],
    "tiny_empty_hybrid": [*TINY_EMPTY, "scenario.kind=hybrid", "scenario.keep_prob=0.5"],
    "tiny_empty_missing": TINY_EMPTY_MISSING,
}

# sha256 of every file `fedmm partition` and `fedmm export-instructions`
# write apart from config.resolved (which holds out_dir), for the default
# config, tiny missing-modality, cross-modality and hybrid ones, and
# hybrid and missing-modality ones with empty clients: the manifests, the
# partition, its count table and the instruction files pin the data path
# as the training pins pin the model.
GOLDEN_DATA = {
    ("partition", "default"): {
        "counts.csv": "d509412eefa52b54cf58f94ed62ca1af06a579b51c1262684a6f8c72ef823ddf",
        "partition.json": "fd495a0f14627f72d41eab9abacb5ae58681334d84a1ca7fdc7b8571ee72e2db",
        "test_manifest.jsonl": "20d8c35ea8a3e3cb6ff899efbe96cb1673753c697d09ccfbfe40655e322787e8",
        "train_manifest.jsonl": "c1e400c62fd380de5f2a2c9f1698cfad9555816e1dee6125322f7a18abcd0b2c",
    },
    ("partition", "tiny_missing"): {
        "counts.csv": "afc808467774d6d310dc4d3a3e01e6ac21477f5751cfd0405476059f08a7357f",
        "partition.json": "fb7dd1727c19f5cdc2c26c038218a0b8bc66732d23fbd39b4a474dee6d39a973",
        "test_manifest.jsonl": "0663715301df0aef10e951767613719e9a47daa80cfd95ef952cadb2c7d9e957",
        "train_manifest.jsonl": "f78552228d63b9d9b293c93d712a247e1f793eb2ac378f8202d38e64e7ad57ba",
    },
    ("partition", "tiny_cross"): {
        "counts.csv": "512109ccab690579f3957e7d1fbd9a7a34f5f4e53ee0f6094afbe95edf8405a6",
        "partition.json": "f919fba0623da7f7ffc704c79836537de0b2ccc92ed9067fb665492c850a65a7",
        "test_manifest.jsonl": "0663715301df0aef10e951767613719e9a47daa80cfd95ef952cadb2c7d9e957",
        "train_manifest.jsonl": "f78552228d63b9d9b293c93d712a247e1f793eb2ac378f8202d38e64e7ad57ba",
    },
    ("partition", "tiny_hybrid"): {
        "counts.csv": "a0e57122ad1268234c03d3ec85d36f7577b7bc45ee5262796b521993a782f86e",
        "partition.json": "fe29210c60170d5f914081b38358e6c3143c34c970d70703dc48bc3f6795c223",
        "test_manifest.jsonl": "0663715301df0aef10e951767613719e9a47daa80cfd95ef952cadb2c7d9e957",
        "train_manifest.jsonl": "f78552228d63b9d9b293c93d712a247e1f793eb2ac378f8202d38e64e7ad57ba",
    },
    ("export-instructions", "default"): {
        "instructions/client_00.jsonl": "f35d5452e2a16ca3ec9b2aab0e164a5d7e2e05b6024cfc995f08979f821a18d5",
        "instructions/client_01.jsonl": "1a4a14d84ccfa70c81dc544238741bb9cce19acc8e04a37d537fa68629772fa5",
        "instructions/client_02.jsonl": "14f2aaa6d4689d149be984144843c298f5b8d1ddc2c2a9194d5d8b3a9d41dd39",
        "instructions/client_03.jsonl": "59bcb88faf17775b65217b61ac396a52fb3f0749a712446d94a1d9830451270b",
        "instructions/client_04.jsonl": "792282b29c4b523d62f1ac37629b3fed53dc0c94356e6bb4509e2eaeb565127f",
        "instructions/client_05.jsonl": "f1fde2b3a206c0af23ea3fe8c2c59d9d9ee10c19e753545ff439265276530ece",
        "instructions/client_06.jsonl": "a6025ff122be8839a7155e330b4ed375877946479c4244cac10da6f341330b03",
        "instructions/client_07.jsonl": "158df70ca7b70e080294d2370f4a77c440592a85b89fad3a703b6d6562df8ce5",
        "instructions/client_08.jsonl": "c2b196361f6a4168880f26048356995cfc9e81fc2c1f78aa72cb62744a48000a",
        "instructions/client_09.jsonl": "f7043a25bc114232efd2411cf6d04c5b6e3ee05fdba6e971130747185fc38d47",
    },
    ("export-instructions", "tiny_missing"): {
        "instructions/client_00.jsonl": "ef74978b7f4b511c760221f093fe8991e79a94cc4c0725bfdb2d95b726c6531c",
        "instructions/client_01.jsonl": "3f8d4fc05586cf8d068d1d9d452f55b72f797fd0f92a5bf487632f2354dc7817",
        "instructions/client_02.jsonl": "62f33a0dee1066e023a50b694e29eaefdd7afd31509f6d246e6a1b58c3789727",
    },
    ("export-instructions", "tiny_cross"): {
        "instructions/client_00.jsonl": "b148ac42f07afc61f1e96facbdb09796b4422ad16ecea3cc741c8695a43b1b6f",
        "instructions/client_01.jsonl": "f05ba1bca9311527f71c06b118a1a5b6e033f13afd0c89611767292ad2fa2d08",
        "instructions/client_02.jsonl": "e2d1b8aaff3d44cf258ef22461d7954fbf4881a23a5ad3581acc7360764ad92c",
    },
    ("export-instructions", "tiny_hybrid"): {
        "instructions/client_00.jsonl": "b148ac42f07afc61f1e96facbdb09796b4422ad16ecea3cc741c8695a43b1b6f",
        "instructions/client_01.jsonl": "01fe39a0565e4a3ed71f5f0aa2b57442f9e1bf0b597ef0bd71d0b2b06fec56ac",
        "instructions/client_02.jsonl": "62f33a0dee1066e023a50b694e29eaefdd7afd31509f6d246e6a1b58c3789727",
    },
    ("partition", "tiny_empty_hybrid"): {
        "counts.csv": "583842d9ac9b75bb752f4b6846de63178f825cce8ab0d5c77ee1d171fb051bf7",
        "partition.json": "bb2c5c38ee5630153c19f3051fc18280df5b3a9198f80448dc8228850c3d1287",
        "test_manifest.jsonl": "877e5de2fa5810ee679606ca25eb6140e9d83967bb92ea65163fe50812b15ab1",
        "train_manifest.jsonl": "8fd41e9aab709cc1496652aa8d89d74ded75e6f28277766d19fa4ad6570513f9",
    },
    ("partition", "tiny_empty_missing"): {
        "counts.csv": "e74dc3abbdea5ead4b3b337ffab3de78a3dcc043c066e5dc41c1bd7f9608f3fa",
        "partition.json": "50c25802d89ec7d14d464dfdd6745daa6ed86d785a2ce2dc972a941bf226b8e6",
        "test_manifest.jsonl": "877e5de2fa5810ee679606ca25eb6140e9d83967bb92ea65163fe50812b15ab1",
        "train_manifest.jsonl": "8fd41e9aab709cc1496652aa8d89d74ded75e6f28277766d19fa4ad6570513f9",
    },
    ("export-instructions", "tiny_empty_hybrid"): {
        "instructions/client_00.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "instructions/client_01.jsonl": "414aa58bf28ce01cb86ed4783e6753d47be2845901c882088ec1a6a8ea1ab41a",
        "instructions/client_02.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "instructions/client_03.jsonl": "516768e19f907918a362b587efac2a7f9f23331d8fe5996966d710c64796346c",
        "instructions/client_04.jsonl": "80750fa53823036e1d2eeb0aeab21ad228a38fadc2ab2485c67d2a8ec4a1cd6b",
        "instructions/client_05.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("export-instructions", "tiny_empty_missing"): {
        "instructions/client_00.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "instructions/client_01.jsonl": "414aa58bf28ce01cb86ed4783e6753d47be2845901c882088ec1a6a8ea1ab41a",
        "instructions/client_02.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "instructions/client_03.jsonl": "7a79e2592d2756de29951caf93bba55d25f58432614c8c308ddec05caa0e5137",
        "instructions/client_04.jsonl": "de3d1a9c334a1cbbb536bfe9082861b032700b555992c621d3eb47f0f1eed61a",
        "instructions/client_05.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


@pytest.mark.parametrize("command,case", sorted(GOLDEN_DATA))
def test_data_output_hashes_pinned(tmp_path, command, case):
    argv = [command, "--set", f"out_dir={tmp_path}"]
    for item in DATA_CASES[case]:
        argv += ["--set", item]
    assert run(argv) == 0
    written = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p.name != "config.resolved")
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert got == GOLDEN_DATA[command, case]


def test_train_from_saved_manifests_equals_train_from_synth(tmp_path):
    """The record path (load_manifest) and the column path
    (synth_generate) give the same data, so the same run."""
    common = [*TINY_MISSING, "fl.rounds=5", "fl.eval_every=1"]

    def argv(command, out, *extra):
        items = [*common, *extra, f"out_dir={out}"]
        return [command, *(arg for item in items for arg in ("--set", item))]

    assert run(argv("partition", tmp_path / "data")) == 0
    assert run(argv("train", tmp_path / "synth")) == 0
    assert run(argv("train", tmp_path / "loaded", "data.source=manifest",
                    f"data.train_manifest={tmp_path / 'data' / 'train_manifest.jsonl'}",
                    f"data.test_manifest={tmp_path / 'data' / 'test_manifest.jsonl'}")) == 0
    for name in ("runlog.jsonl", "server_state.bin", "model.bin"):
        assert (tmp_path / "loaded" / name).read_bytes() == (tmp_path / "synth" / name).read_bytes(), name


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
def test_train_divergence_exits_2_without_infinity(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["train", "--set", "local.lr=50", "--set", "fl.rounds=10", "--set", f"out_dir={out}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "round" in err and "client" in err and "not finite" in err
    assert not out.exists()
    assert not (out / "runlog.jsonl").exists()
    assert list(tmp_path.iterdir()) == []


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
        "synth.classes=3, metric=auto|roc_auc",  # a cell whose metric cannot score its 3-class test set
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


def test_sweep_cell_without_data_exits_2_before_any_run_dir(tmp_path, capsys):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_manifest(tiny_manifest(split="train"), train)
    save_manifest(tiny_manifest(split="test"), test)
    out, missing = tmp_path / "sweep", tmp_path / "missing.jsonl"
    cfg = write_config(tmp_path / "run.cfg", [
        f"out_dir = {out}", "data.source = manifest", f"data.test_manifest = {test}",
        f"data.train_manifest = {train}", f"sweep.grid = data.train_manifest={train}|{missing}",
    ])
    assert run(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fedmm sweep: ") and str(missing) in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "test.jsonl", "train.jsonl"]


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


# Text with no decimal digit cannot parse as a number, so no drawn value
# can make a run bigger than the tiny config.
_BAD_VALUES = st.one_of(
    st.sampled_from(["", "-1", "0", "nan", "inf", "1e400", "true", "[]"]),
    st.text(st.characters(exclude_categories=("Nd",)), max_size=12),
)


@settings(max_examples=120, deadline=None)
@given(key=st.sampled_from([key for key in SCHEMA if key != "out_dir"]), value=_BAD_VALUES)
def test_any_key_any_value_exits_0_or_2_without_out_dir(tmp_path_factory, key, value):
    """`partition` and `train` both exit 2 without an out_dir, or
    `partition` exits 0 and `train` and `baseline` replay the config from
    its snapshot: a config one command accepts, every command accepts."""
    root = tmp_path_factory.mktemp("run")
    codes = {}
    for command in ("partition", "train"):
        argv = [command]
        for item in [*FAST_KEYS, "fl.rounds = 1", f"{key}={value}", f"out_dir={root / command}"]:
            argv += ["--set", item]
        codes[command] = run(argv)
        assert codes[command] == 0 or (codes[command] == 2 and not (root / command).exists())
    if codes["partition"] == 2:
        assert codes["train"] == 2
        return
    snapshot = str(root / "partition" / "config.resolved")
    for command in ("train", "baseline"):
        assert run([command, "--config", snapshot, "--set", f"out_dir={root / 'replay' / command}"]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("key", [key for key, spec in SCHEMA.items() if spec.kind in ("float", "opt_float")])
def test_non_finite_float_exits_2(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    assert run(["train", "--set", f"{key}={value}", "--set", f"out_dir={out}"]) == 2
    assert f"key {key!r}: expected a finite number, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_value_that_is_not_utf8_exits_2_without_out_dir(tmp_path, capsys):
    # a non-UTF-8 argv byte reaches Python as a lone surrogate; the snapshot could not hold it
    out = tmp_path / "out"
    assert run(["train", "--set", "data.train_manifest=\udcff", "--set", f"out_dir={out}"]) == 2
    assert "key 'data.train_manifest'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("brk", [*LINE_BREAKS, "\r\n"])
def test_value_with_line_break_exits_2_without_out_dir(tmp_path, capsys, brk):
    # the snapshot holds one value per line, so it could not replay this run
    out = tmp_path / "out"
    argv = ["train", "--set", f"data.train_manifest=a{brk}b", "--set", "fl.rounds=1", "--set", f"out_dir={out}"]
    assert run(argv) == 2
    assert "key 'data.train_manifest': a value cannot hold a line break" in capsys.readouterr().err
    assert not out.exists()


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
