"""The benchmark's layer probes still find what they trace.

`bench/run.py --trace 1` patches each probe's attribute where its caller
looks it up; a probe whose attribute is gone is skipped and its metrics
read as zero calls. This test imports `layer_probes()` from bench/ (and
changes nothing there), so a refactor that moves a traced function out
from under its probe fails here instead of silently zeroing a metric.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from fedmm import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Probes of the flat-vector round trips that the single flat adapter
# representation removed; the benchmark keeps them so they read 0.
DEAD = ["AdapterDelta.to_vector", "AdapterDelta.from_vector"]


@pytest.fixture(scope="module")
def bench_run():
    # run.py pins BLAS threads through os.environ and imports its siblings
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(BENCH), *sys.path]):
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    return module


def test_every_live_probe_resolves(bench_run):
    tracer = bench_run.Tracer(bench_run.layer_probes())
    with tracer.installed():
        pass
    assert tracer.missing == DEAD


def test_traced_train_reaches_every_live_probe(bench_run, tmp_path):
    probes = bench_run.layer_probes()
    tracer = bench_run.Tracer(probes)
    argv = ["train", "--set", f"out_dir={tmp_path}"]
    for item in ("scenario.kind=cross", "fl.rounds=2", "fl.eval_every=2", "synth.samples_per_class=8",
                 "synth.test_samples_per_class=4"):
        argv += ["--set", item]
    with tracer.installed():
        assert cli.run(argv) == 0
    unreached = [name for name, (calls, _) in tracer.self_times().items() if calls == 0]
    assert unreached == [f"model.{name}" for name in DEAD]
