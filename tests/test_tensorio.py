"""One encoding rule for every file fedmm writes, and strict reads."""

import math
import re

import pytest

from fedmm.cli import run
from fedmm.server import RunLog
from fedmm.tensorio import dumps, loads, write_lines

TINY = [
    "synth.samples_per_class=4", "synth.test_samples_per_class=2", "scenario.clients=3",
    "fl.rounds=2", "fl.eval_every=1", "baseline.epochs=1",
]
NON_FINITE = re.compile(r"\b(NaN|Infinity)\b")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_refuses_non_finite(value):
    with pytest.raises(ValueError):
        dumps({"value": value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_write_lines_raises_on_non_finite_and_leaves_no_file(tmp_path, value):
    path = tmp_path / "log.jsonl"
    with pytest.raises(ValueError):
        write_lines(path, (dumps({"round": t, "loss": loss}) for t, loss in enumerate([0.5, value])))
    assert not path.exists()


def test_dumps_and_write_lines_keep_text_and_write_lf(tmp_path):
    path = tmp_path / "out.jsonl"
    write_lines(path, [dumps({"id": "é"}), dumps([1.5, 2], indent=1)])
    assert path.read_bytes() == '{"id": "é"}\n[\n 1.5,\n 2\n]\n'.encode("utf-8")


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"a": 1, "a": 1}', "key 'a' appears twice in one object"),
        ('[{"b": {"c": 0, "d": 1, "c": 2}}]', "key 'c' appears twice in one object"),
        ('{"lr": NaN}', "NaN is not a finite number"),
        ('[1.0, Infinity]', "Infinity is not a finite number"),
        ('-Infinity', "-Infinity is not a finite number"),
        ('{"tau": 1e400}', "1e400 is not a finite number"),
    ],
)
def test_loads_rejects_repeated_key_and_non_finite_number(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loads(text)


def test_loads_reads_what_dumps_writes():
    obj = {"a": [1, -2.5, 1e-300, 1.7976931348623157e308], "b": {"c": None, "d": True, "e": "x"}}
    assert loads(dumps(obj)) == obj
    assert list(loads('{"z": 0, "a": 1}')) == ["z", "a"]


@pytest.mark.parametrize(
    "line,message", [('{"round": 1, "round": 2}', "key 'round' appears twice in one object"), ('{"loss": NaN}', "NaN is not a finite number")]
)
def test_runlog_read_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "runlog.jsonl"
    path.write_bytes(f'{{"round": 1}}\n{line}\n'.encode("utf-8"))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        RunLog.read(path)


def test_every_output_follows_the_one_rule(tmp_path):
    """Every file the subcommands write is UTF-8; JSON and JSONL parse
    under loads; only CSV rows end in CRLF, and every one does; no text
    file holds a NaN or Infinity token."""
    for command in ("partition", "train", "baseline", "export-instructions"):
        assert run([command, *(a for item in TINY for a in ("--set", item)), "--set", f"out_dir={tmp_path / command}"]) == 0
    sweep = ["sweep", *(a for item in TINY for a in ("--set", item)), "--set", "sweep.grid=seed=0|1"]
    assert run([*sweep, "--set", f"out_dir={tmp_path / 'sweep'}"]) == 0
    assert run(["report", str(tmp_path / "train"), str(tmp_path / "sweep" / "seed-1"), "--out", str(tmp_path / "report.csv")]) == 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert {p.suffix for p in files} == {".bin", ".csv", ".json", ".jsonl", ".resolved"}
    for path in files:
        raw = path.read_bytes()
        if path.suffix == ".bin":  # only the header line is text
            raw = raw.split(b"\n", 1)[0]
            assert isinstance(loads(raw), dict), path
        text = raw.decode("utf-8")
        assert NON_FINITE.search(text) is None, path
        if path.suffix == ".csv":
            bare = text.replace("\r\n", "")
            assert text.endswith("\r\n") and "\r" not in bare and "\n" not in bare, path
            continue
        assert "\r" not in text, path
        if path.suffix == ".json":
            loads(text)
        elif path.suffix == ".jsonl":
            for line in text.splitlines():
                loads(line)
