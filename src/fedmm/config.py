"""Flat key = value experiment configs.

Grammar: UTF-8 text, one `key = value` pair per line, `#` starts a
comment line, blank lines ignored. Keys are dotted names from the schema
below; unknown keys are rejected. Values parse by the key's declared
type: ints, finite floats, true/false booleans, bare strings, and comma
separated lists, none holding a line break (a str.splitlines break).
Optional keys read as absent when the value is empty.

A single master `seed` drives everything: data generation, partitioning,
model init, client sampling, and local training each hash it with a
purpose label (and round/client indices where relevant), so streams never
collide and adding a consumer never shifts existing draws.

`resolved_text` renders every key including defaults; writing it next to
a run's outputs gives a snapshot that reproduces the run exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from . import rng
from .client import LocalTrainConfig, RegularizerConfig
from .data import SPLITS, DatasetManifest, SynthConfig
from .model import ModelConfig
from .metrics import METRIC_KINDS
from .partitioner import SCENARIO_KINDS, SCENARIO_KNOBS, ScenarioSpec
from .server import AGGREGATOR_KINDS, FLRunConfig
from .tensorio import write_lines


@dataclass(frozen=True)
class KeySpec:
    kind: str
    default: object
    help: str


# A key that feeds a config field takes that field's default, so each
# default has one home; keys with no field of their own hold literals.
SCHEMA: dict[str, KeySpec] = {
    "seed": KeySpec("int", 0, "master seed; all streams derive from it"),
    "out_dir": KeySpec("str", "run", "output directory, relative paths live under $FEDMM_OUT"),
    "metric": KeySpec("str", "auto", " | ".join(METRIC_KINDS)),
    "prompt.agnostic": KeySpec("bool", True, "splice the modality-agnostic clause into prompts"),
    "data.source": KeySpec("str", "synth", "synth | manifest"),
    "data.train_manifest": KeySpec("opt_str", None, "train manifest path (manifest mode)"),
    "data.test_manifest": KeySpec("opt_str", None, "test manifest path (manifest mode)"),
    "synth.classes": KeySpec("int", SynthConfig.class_count, "class count"),
    "synth.modalities": KeySpec("str_list", list(SynthConfig.modalities), "modality names"),
    "synth.dims": KeySpec("int_list", list(SynthConfig.dims), "per-modality feature dims"),
    "synth.samples_per_class": KeySpec("int", SynthConfig.samples_per_class, "train samples per class"),
    "synth.test_samples_per_class": KeySpec("int", 100, "test samples per class"),
    "synth.centroid_scale": KeySpec("float", SynthConfig.centroid_scale, "class centroid std"),
    "synth.noise_scale": KeySpec("float", SynthConfig.noise_scale, "per-sample noise std"),
    "scenario.kind": KeySpec("str", "aligned", " | ".join(SCENARIO_KINDS)),
    "scenario.clients": KeySpec("int", 10, "client count"),
    "scenario.alpha": KeySpec("float", 0.5, "Dirichlet concentration for label skew"),
    "scenario.beta": KeySpec("float", 0.5, "missing: per-slot drop probability"),
    "scenario.image_only_clients": KeySpec("int", 5, "cross: clients keeping only modality 0"),
    "scenario.keep_prob": KeySpec("float", 0.8, "hybrid: per-modality keep probability"),
    "model.hidden": KeySpec("int", ModelConfig.hidden, "hidden width"),
    "model.encoder_depth": KeySpec("int", ModelConfig.encoder_depth, "tanh layers per modality encoder"),
    "model.trunk_depth": KeySpec("int", ModelConfig.trunk_depth, "tanh layers after fusion"),
    "model.rank": KeySpec("int", ModelConfig.rank, "adapter rank"),
    "model.adapter_alpha": KeySpec("float", ModelConfig.adapter_alpha, "adapter composition scale numerator"),
    "fl.rounds": KeySpec("int", FLRunConfig.rounds, "federated rounds"),
    "fl.clients_per_round": KeySpec("int", FLRunConfig.clients_per_round, "clients sampled per round"),
    "fl.aggregator": KeySpec("str", FLRunConfig.aggregator, " | ".join(AGGREGATOR_KINDS)),
    "fl.server_lr": KeySpec("opt_float", FLRunConfig.server_lr, "server learning rate (empty: per-kind default)"),
    "fl.eval_every": KeySpec("int", FLRunConfig.eval_every, "evaluate every this many rounds"),
    "local.epochs": KeySpec("int", LocalTrainConfig.epochs, "local epochs per round"),
    "local.batch_size": KeySpec("int", LocalTrainConfig.batch_size, "local minibatch size"),
    "local.lr": KeySpec("float", LocalTrainConfig.lr, "local peak learning rate"),
    "local.warmup_ratio": KeySpec("float", LocalTrainConfig.warmup_ratio, "fraction of local steps spent warming up"),
    "reg.enabled": KeySpec("bool", RegularizerConfig.enabled, "adaptive proximal regularizer on/off"),
    "reg.gamma_max": KeySpec("float", RegularizerConfig.gamma_max, "proximal strength ceiling"),
    "reg.margin": KeySpec("int", RegularizerConfig.margin, "depths masked off at each end"),
    "baseline.epochs": KeySpec("int", 5, "isolated-client baseline epochs"),
    "sweep.grid": KeySpec("str_list", [], "fedmm sweep axes, KEY=V1|V2|... each; runs their cartesian product"),
}


def parse_value(kind: str, text: str) -> object:
    text = text.strip()
    text.encode("utf-8")  # a lone surrogate raises here, not when the snapshot is written
    if "".join(text.splitlines()) != text:  # the snapshot holds one value per line
        raise ValueError(f"a value cannot hold a line break, got {text!r}")
    if kind.startswith("opt_") and text == "":
        return None
    if kind in ("opt_str", "str"):
        return text
    if kind == "int":
        return int(text)
    if kind in ("opt_float", "float"):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        return value
    if kind == "bool":
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {text!r}")
    if kind.endswith("_list"):
        if text == "":
            return []
        element = {"int_list": int, "str_list": str}[kind]
        return [element(part.strip()) for part in text.split(",")]
    raise ValueError(f"unknown key kind {kind!r}")


def render_value(kind: str, value: object) -> str:
    if value is None:
        return ""
    if kind == "bool":
        return "true" if value else "false"
    if kind.endswith("_list"):
        return ",".join(render_value(kind.removesuffix("_list").replace("opt_", ""), v) for v in value)
    if kind in ("float", "opt_float"):
        return repr(float(value))
    return str(value)


def _key_value(item: str, where: str, form: str) -> tuple[str, str]:
    """item split at its first `=` into a SCHEMA key and the value text,
    both stripped; an error starts with where and names the expected form."""
    key, sep, value = item.partition("=")
    key = key.strip()
    if not sep:
        raise ValueError(f"{where}: expected {form}, got {item!r}")
    if key not in SCHEMA:
        raise ValueError(f"{where}: unknown key {key!r}")
    return key, value.strip()


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            key, value = _key_value(line, f"{source}:{lineno}", "`key = value`")
            raw[key] = value
    return raw


@dataclass
class ExperimentConfig:
    """A fully resolved flat config, checked when it is built, its
    scenario, FL, baseline and synth sections by deriving them; typed
    sub-configs derive on demand. What needs the loaded manifests is
    checked by cli._setup: the model section against the train manifest's
    dims, and the metric against the test manifest (metrics.EvalSet)."""

    values: dict[str, object]

    @classmethod
    def from_sources(
        cls,
        config_path: str | Path | None = None,
        overrides: list[str] | None = None,
    ) -> "ExperimentConfig":
        raw: dict[str, str] = {}
        if config_path is not None:
            text = Path(config_path).read_text(encoding="utf-8")
            raw.update(parse_config_text(text, source=str(config_path)))
        for item in overrides or []:
            key, value = _key_value(item, "--set", "key=value")
            raw[key] = value
        values: dict[str, object] = {}
        for key, spec in SCHEMA.items():
            if key in raw:
                try:
                    values[key] = parse_value(spec.kind, raw[key])
                except ValueError as err:
                    raise ValueError(f"key {key!r}: {err}") from None
            else:
                values[key] = spec.default
        return cls(values=values)

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    def __post_init__(self) -> None:
        if self["data.source"] not in ("synth", "manifest"):
            raise ValueError(f"data.source must be synth or manifest, got {self['data.source']!r}")
        if self["data.source"] == "manifest":
            for key in ("data.train_manifest", "data.test_manifest"):
                if not self[key]:
                    raise ValueError(f"data.source=manifest requires {key}")
        if self["metric"] not in METRIC_KINDS:
            raise ValueError(f"metric must be one of {METRIC_KINDS}, got {self['metric']!r}")
        self.scenario_spec()
        self.fl_config()  # and its local and reg sections
        self.baseline_config()
        if self["data.source"] == "synth":
            for split in SPLITS:
                self.synth_config(split)
        self.sweep_axes()

    @property
    def seed(self) -> int:
        return int(self.values["seed"])

    def out_dir(self) -> Path:
        configured = Path(str(self.values["out_dir"]))
        if configured.is_absolute():
            return configured
        root = Path(os.environ.get("FEDMM_OUT", "."))
        return root / configured

    def _section(self, cls: type, prefix: str, **given: object) -> object:
        """cls with each field read from the key `prefix.<field>`; a field
        in `given` takes that value instead, and a field with no key keeps
        its default."""
        for f in fields(cls):
            key = f"{prefix}.{f.name}"
            if f.name not in given and key in SCHEMA:
                given[f.name] = self[key]
        return cls(**given)

    def synth_config(self, split: str = "train") -> SynthConfig:
        """The generator of split's manifest: the two splits differ only in
        samples_per_class."""
        return self._section(
            SynthConfig,
            "synth",
            class_count=self["synth.classes"],
            samples_per_class=self["synth.samples_per_class" if split == "train" else "synth.test_samples_per_class"],
            modalities=tuple(self["synth.modalities"]),
            dims=tuple(self["synth.dims"]),
            seed=rng.seed_for(self.seed, "data"),
        )

    def scenario_spec(self) -> ScenarioSpec:
        """The spec of scenario.kind, with the knobs that kind does not
        read left unset."""
        knob = SCENARIO_KNOBS.get(self["scenario.kind"])
        unread = {name: None for name in filter(None, SCENARIO_KNOBS.values()) if name != knob}
        return self._section(ScenarioSpec, "scenario", seed=rng.seed_for(self.seed, "scenario"), **unread)

    def model_config(self, train: DatasetManifest) -> ModelConfig:
        """The model for train's modality dims and class count."""
        return self._section(
            ModelConfig,
            "model",
            modality_dims=tuple(m.dim for m in train.modalities),
            class_count=train.class_count,
            seed=rng.seed_for(self.seed, "model"),
        )

    def local_config(self) -> LocalTrainConfig:
        return self._section(LocalTrainConfig, "local")

    def baseline_config(self) -> LocalTrainConfig:
        """The local section with baseline.epochs: the isolated-client
        baseline's training."""
        return self._section(LocalTrainConfig, "local", epochs=self["baseline.epochs"])

    def reg_config(self) -> RegularizerConfig:
        return self._section(RegularizerConfig, "reg")

    def fl_config(self) -> FLRunConfig:
        return self._section(
            FLRunConfig,
            "fl",
            local=self.local_config(),
            reg=self.reg_config(),
            seed=rng.seed_for(self.seed, "fl"),
        )

    def sweep_axes(self) -> list[tuple[str, list[object]]]:
        """`sweep.grid` parsed into (key, values) axes, in grid order.

        Each element is `KEY=V1|V2|...`; every value parses by the key's
        own kind. List keys, `out_dir` and repeated keys or values cannot
        make an axis.
        """
        axes: dict[str, list[object]] = {}
        for item in self["sweep.grid"]:
            key, text = _key_value(item, "sweep.grid", "KEY=V1|V2|...")
            kind = SCHEMA[key].kind
            if kind.endswith("_list") or key == "out_dir":
                raise ValueError(f"sweep.grid: {key!r} cannot be an axis")
            if key in axes:
                raise ValueError(f"sweep.grid: axis {key!r} given twice")
            try:
                values = [parse_value(kind, part) for part in text.split("|")]
            except ValueError as err:
                raise ValueError(f"sweep.grid: axis {key!r}: {err}") from None
            if len({render_value(kind, v) for v in values}) != len(values):
                raise ValueError(f"sweep.grid: axis {key!r} repeats a value")
            axes[key] = values
        return list(axes.items())

    def with_values(self, updates: dict[str, object]) -> "ExperimentConfig":
        merged = dict(self.values)
        for key, value in updates.items():
            if key not in SCHEMA:
                raise ValueError(f"unknown key {key!r}")
            merged[key] = value
        return ExperimentConfig(values=merged)

    def resolved_text(self) -> str:
        lines = [f"{key} = {render_value(SCHEMA[key].kind, self.values[key])}" for key in sorted(SCHEMA)]
        return "\n".join(lines) + "\n"

    def write_snapshot(self, path: str | Path) -> None:
        write_lines(path, self.resolved_text().splitlines())
