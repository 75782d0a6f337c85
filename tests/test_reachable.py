"""Every top-level function and method of src/fedmm runs in some
subcommand, or is listed below with the reason it does not.

The subcommands run on tiny configs under sys.setprofile, which sees
every Python call; a definition counts as called when a frame of its
code object starts. A code object's co_firstlineno is the line of its
first decorator, so a decorated definition is matched by that line."""

import ast
import sys
from pathlib import Path

import fedmm
from fedmm.cli import run

SRC = Path(fedmm.__file__).resolve().parent

# Definitions no subcommand calls, each with the reason it stays.
UNCALLED = {
    "tensorio.read_tensor_file": "loader: resume will read checkpoints back",
    "model.read_checkpoint": "loader: resume will read checkpoints back",
    "model.layout_config": "loader: read_checkpoint checks a header's layout with it",
    "model._check_entries": "loader: read_checkpoint checks header entries with it",
    "model._expect_names": "loader: read_checkpoint checks key and array names with it",
    "model.load_checkpoint": "loader: resume will read model.bin back",
    "server.load_server_state": "loader: resume will read server_state.bin back",
    "data.DatasetManifest.by_id": "API the frozen test references call",
    "data.DatasetManifest.index_of": "API the frozen test references call",
    "cli._layout": "names the layouts in the error for mismatched manifests",
    "data._check_each_sample": "names the first bad sample once a manifest's columns fail their checks",
    "data.Entries.__missing__": "names the missing key of a malformed manifest line",
    "cli.main": "the console entry point; tests call cli.run",
}

TINY = [
    "synth.samples_per_class=4", "synth.test_samples_per_class=2", "scenario.clients=3",
    "fl.rounds=2", "fl.eval_every=1", "baseline.epochs=1", "local.batch_size=2",
]
SCENARIOS = [
    ["scenario.kind=aligned"],
    ["scenario.kind=missing", "scenario.beta=0.5"],
    ["scenario.kind=cross", "scenario.image_only_clients=1"],
    ["scenario.kind=hybrid", "scenario.keep_prob=0.5"],
]


def definitions():
    """{(file, first line): dotted name} of every top-level function and
    of every method of a top-level class in src/fedmm."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [(f"{module}.", node)]
            if isinstance(node, ast.ClassDef):
                members = [(f"{module}.{node.name}.", item) for item in node.body]
            for prefix, item in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([item.lineno, *(d.lineno for d in item.decorator_list)])
                    found[(str(path), first)] = prefix + item.name
    return found


def args(*items):
    return [a for item in items for a in ("--set", item)]


def run_every_subcommand(root):
    """partition, train (each scenario kind, two classes so roc_auc
    scores, and manifest mode), baseline, export-instructions, sweep and
    report, each on a tiny config under root; every one must exit 0."""
    two_classes = ["synth.classes=2", "model.rank=2"]  # the head is 2 wide
    commands = [["partition", *args(*TINY, f"out_dir={root / 'partition'}")]]
    saved = [f"data.train_manifest={root / 'partition' / 'train_manifest.jsonl'}",
             f"data.test_manifest={root / 'partition' / 'test_manifest.jsonl'}"]
    for i, scenario in enumerate(SCENARIOS):
        commands.append(["train", *args(*TINY, *scenario, f"out_dir={root / f'train-{i}'}")])
    commands += [
        ["train", *args(*TINY, *two_classes, f"out_dir={root / 'train-binary'}")],
        ["train", *args(*TINY, "data.source=manifest", *saved, f"out_dir={root / 'train-manifest'}")],
        ["baseline", *args(*TINY, f"out_dir={root / 'baseline'}")],
        ["export-instructions", *args(*TINY, f"out_dir={root / 'export'}")],
        ["sweep", *args(*TINY, "sweep.grid=reg.enabled=true|false", f"out_dir={root / 'sweep'}")],
        ["report", str(root / "train-0"), str(root / "train-1"), "--out", str(root / "report.csv")],
    ]
    for argv in commands:
        assert run(argv) == 0, argv


def test_every_src_function_runs_or_is_listed(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run_every_subcommand(tmp_path)
    finally:
        sys.setprofile(None)
    uncalled = {name for key, name in definitions().items() if key not in called}
    assert uncalled == set(UNCALLED), (sorted(uncalled - set(UNCALLED)), sorted(set(UNCALLED) - uncalled))
