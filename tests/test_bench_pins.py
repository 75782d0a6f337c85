"""The benchmark's pinned outputs, checked on every test run.

bench/workloads.py pins the sha256 of runlog.jsonl, server_state.bin and
model.bin and the final eval value of each benchmark workload at
DEFAULT_SEED. The benchmark rejects any invocation that drifts from
them; this test runs each workload once through the same entry point,
so a byte drift fails the suite instead of surfacing only when someone
runs the benchmark. It reads bench/ and changes nothing there.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fedmm.cli import run

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


bench = _load_workloads()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_bench_workload_reproduces_pins(tmp_path, name):
    workload = bench.WORKLOADS[name]
    argv = ["train"]
    for item in (*workload.overrides, f"seed={bench.DEFAULT_SEED}", f"out_dir={tmp_path}"):
        argv += ["--set", item]
    assert run(argv) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in bench.OUTPUT_FILES}
    records = [json.loads(line) for line in (tmp_path / "runlog.jsonl").read_text(encoding="utf-8").splitlines()]
    got["final_metric"] = [r["eval"] for r in records if r["eval"] is not None][-1]["value"]
    assert got == workload.pinned
