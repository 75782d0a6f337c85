import re
from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from fedmm import rng
from fedmm.client import LocalTrainConfig, RegularizerConfig
from fedmm.config import SCHEMA, ExperimentConfig, parse_config_text, parse_value, render_value
from fedmm.data import SynthConfig, synth_generate
from fedmm.model import ModelConfig
from fedmm.metrics import METRIC_KINDS
from fedmm.partitioner import SCENARIO_KNOBS, ScenarioSpec
from fedmm.promptgen import STYLES, TaskSpec
from fedmm.server import AGGREGATOR_KINDS, FLRunConfig


def test_parse_scalars():
    assert parse_value("int", " 5 ") == 5
    assert parse_value("float", "0.5") == 0.5
    assert parse_value("str", "adam") == "adam"
    assert parse_value("bool", "true") is True
    assert parse_value("bool", "No") is False
    with pytest.raises(ValueError, match="true/false"):
        parse_value("bool", "maybe")


def test_parse_optional_and_lists():
    assert parse_value("opt_float", "") is None
    assert parse_value("opt_float", "0.05") == 0.05
    assert parse_value("int_list", "") == []
    assert parse_value("str_list", "adam, yogi") == ["adam", "yogi"]


def test_render_parse_round_trip_all_defaults():
    for key, spec in SCHEMA.items():
        text = render_value(spec.kind, spec.default)
        assert parse_value(spec.kind, text) == spec.default, key


def test_config_text_comments_and_blanks():
    raw = parse_config_text("# heading\n\nseed = 9\nfl.rounds = 3  \n", source="t")
    assert raw == {"seed": "9", "fl.rounds": "3"}


def test_config_text_rejects_junk():
    with pytest.raises(ValueError, match="t:2"):
        parse_config_text("seed = 1\nnot a pair\n", source="t")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("fl.warp = 1\n", source="t")


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 1\nfl.rounds = 3\n", encoding="utf-8")
    cfg = ExperimentConfig.from_sources(path, ["seed=7"])
    assert cfg["seed"] == 7
    assert cfg["fl.rounds"] == 3


def test_override_needs_key_value():
    with pytest.raises(ValueError, match="key=value"):
        ExperimentConfig.from_sources(None, ["seed"])
    with pytest.raises(ValueError, match="unknown key"):
        ExperimentConfig.from_sources(None, ["nope=1"])


def test_validate_rejects_bad_values():
    for override, phrase in [
        ("fl.aggregator=sgd", "aggregator"),
        ("scenario.kind=odd", "kind"),
        ("fl.rounds=0", "rounds"),
        ("metric=brier", "metric"),
        ("data.source=oracle", "source"),
    ]:
        with pytest.raises(ValueError, match=phrase):
            ExperimentConfig.from_sources(None, [override])


_ALIGNED = ScenarioSpec(kind="aligned", clients=4, alpha=0.5, seed=0)

# One bad field per checked type, with the message its check gives; then
# one row per rule that only the type checks, no function downstream.
_BAD_FIELDS = [
    (RegularizerConfig(), "gamma_max", -1.0, "gamma_max must be >= 0, got -1.0"),
    (LocalTrainConfig(), "batch_size", 0, "batch_size must be >= 1, got 0"),
    (SynthConfig(), "class_count", 1, "class_count must be >= 2, got 1"),
    (ModelConfig(), "rank", 0, "rank must be >= 1, got 0"),
    (_ALIGNED, "alpha", 0.0, "alpha must be > 0, got 0.0"),
    (TaskSpec(question="q", options=("a", "b")), "style", "fancy", f"style must be one of {STYLES}, got 'fancy'"),
    (FLRunConfig(), "eval_every", 0, "eval_every must be >= 1, got 0"),
    (
        ExperimentConfig.from_sources(),
        "values",
        {**ExperimentConfig.from_sources().values, "metric": "brier"},
        f"metric must be one of {METRIC_KINDS}, got 'brier'",
    ),
    (RegularizerConfig(), "margin", -1, "margin must be >= 0, got -1"),
    (LocalTrainConfig(), "lr", 0.0, "lr must be > 0, got 0.0"),
    (FLRunConfig(), "server_lr", 0.0, "server_lr must be > 0, got 0.0"),
    (LocalTrainConfig(), "warmup_ratio", 1.5, "warmup_ratio must lie in [0, 1], got 1.5"),
    (replace(_ALIGNED, kind="missing", beta=0.5), "beta", 1.5, "beta must lie in [0, 1], got 1.5"),
    (replace(_ALIGNED, kind="hybrid", keep_prob=0.5), "keep_prob", -0.1, "keep_prob must lie in [0, 1], got -0.1"),
    (
        replace(_ALIGNED, kind="cross", image_only_clients=2),
        "image_only_clients",
        5,
        "image_only_clients must lie in [0, 4], got 5",
    ),
    (_ALIGNED, "clients", 0, "clients must be >= 1, got 0"),
    (ModelConfig(), "rank", 5, "rank 5 exceeds fan of layer 'head' (4x32)"),
    (ModelConfig(), "trunk_depth", -1, "encoder_depth and trunk_depth must be >= 0"),
    (
        ExperimentConfig.from_sources(),
        "values",
        {**ExperimentConfig.from_sources().values, "baseline.epochs": -1},
        "epochs must be >= 0, got -1",
    ),
]


def _case_ids(cases):
    """Each row's type name, followed by its field from the type's second
    row on."""
    ids = []
    for valid, field, _, _ in cases:
        name = type(valid).__name__
        ids.append(f"{name}-{field}" if any(i.startswith(name) for i in ids) else name)
    return ids


@pytest.mark.parametrize("valid,field,bad,message", _BAD_FIELDS, ids=_case_ids(_BAD_FIELDS))
def test_checked_types_check_themselves_when_built(valid, field, bad, message):
    """Each checked type raises for a bad field when it is built, directly
    or through dataclasses.replace; nothing has to call a check later."""
    given = {f.name: getattr(valid, f.name) for f in fields(valid)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(valid)(**{**given, field: bad})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(valid, **{field: bad})


def test_manifest_source_requires_paths():
    with pytest.raises(ValueError, match="manifest"):
        ExperimentConfig.from_sources(None, ["data.source=manifest"])


def test_derived_seeds_differ_by_purpose():
    cfg = ExperimentConfig.from_sources(None, ["seed=11"])
    seeds = {
        cfg.synth_config().seed,
        cfg.scenario_spec().seed,
        cfg.model_config(synth_generate(cfg.synth_config(), split="train")).seed,
        cfg.fl_config().seed,
    }
    assert len(seeds) == 4
    assert cfg.synth_config().seed == rng.seed_for(11, "data")


def test_resolved_text_replays(tmp_path):
    cfg = ExperimentConfig.from_sources(
        None, ["seed=5", "fl.rounds=7", "sweep.grid=scenario.alpha=5.0|0.5, fl.aggregator=adam|yogi"]
    )
    path = tmp_path / "config.resolved"
    path.write_text(cfg.resolved_text(), encoding="utf-8")
    again = ExperimentConfig.from_sources(path)
    assert again.values == cfg.values
    lines = cfg.resolved_text().splitlines()
    assert lines == sorted(lines)


def test_out_dir_env_and_absolute(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDMM_OUT", str(tmp_path / "root"))
    rel = ExperimentConfig.from_sources(None, ["out_dir=exp/a"])
    assert rel.out_dir() == tmp_path / "root" / "exp" / "a"
    absolute = ExperimentConfig.from_sources(None, [f"out_dir={tmp_path / 'abs'}"])
    assert absolute.out_dir() == tmp_path / "abs"
    monkeypatch.delenv("FEDMM_OUT")
    plain = ExperimentConfig.from_sources(None, ["out_dir=exp/b"])
    assert plain.out_dir().as_posix().endswith("exp/b")


def test_with_values_is_a_copy():
    cfg = ExperimentConfig.from_sources(None, ["seed=1"])
    other = cfg.with_values({"seed": 2})
    assert cfg["seed"] == 1
    assert other["seed"] == 2
    with pytest.raises(ValueError, match="unknown"):
        cfg.with_values({"bogus": 3})


def test_scenario_spec_kind_fields():
    cross = ExperimentConfig.from_sources(
        None, ["scenario.kind=cross", "scenario.image_only_clients=3"]
    ).scenario_spec()
    assert cross.kind == "cross"
    assert cross.image_only_clients == 3
    assert cross.beta is None
    hybrid = ExperimentConfig.from_sources(
        None, ["scenario.kind=hybrid", "scenario.keep_prob=0.8"]
    ).scenario_spec()
    assert hybrid.keep_prob == 0.8


SECTIONS = {"local": LocalTrainConfig, "reg": RegularizerConfig, "model": ModelConfig, "fl": FLRunConfig, "synth": SynthConfig}
# synth keys that feed no SynthConfig field of their own name
NOT_FIELDS = {"synth.classes": "class_count", "synth.test_samples_per_class": None}


def test_section_keys_name_fields_with_the_same_default():
    checked = 0
    for key, spec in SCHEMA.items():
        prefix, _, name = key.partition(".")
        if prefix not in SECTIONS:
            continue
        name = NOT_FIELDS.get(key, name)
        if name is None:
            continue
        defaults = {f.name: f.default for f in fields(SECTIONS[prefix]) if f.default is not MISSING}
        assert name in defaults, f"{key} names no field of {SECTIONS[prefix].__name__}"
        default = list(defaults[name]) if isinstance(defaults[name], tuple) else defaults[name]
        assert spec.default == default and type(spec.default) is type(default), key
        checked += 1
    assert checked == 23


@pytest.mark.parametrize("kind", SCENARIO_KNOBS)
def test_scenario_spec_sets_exactly_the_kinds_knob(kind):
    knobs = {"alpha": 0.7, "beta": 0.3, "image_only_clients": 4, "keep_prob": 0.6}
    cfg = ExperimentConfig.from_sources(None, [f"scenario.kind={kind}"] + [f"scenario.{k}={v}" for k, v in knobs.items()])
    spec = cfg.scenario_spec()
    knob = SCENARIO_KNOBS[kind]
    for name in filter(None, SCENARIO_KNOBS.values()):
        assert getattr(spec, name) == (knobs[name] if name == knob else None), name
    assert spec.level() == knobs[knob or "alpha"]


def test_sweep_axes_parse_by_key_kind():
    cfg = ExperimentConfig.from_sources(
        None, ["sweep.grid=scenario.kind=cross|missing, reg.enabled=true|false, seed=0|1|2, fl.server_lr=|0.1"]
    )
    assert cfg["sweep.grid"] == ["scenario.kind=cross|missing", "reg.enabled=true|false", "seed=0|1|2", "fl.server_lr=|0.1"]
    assert cfg.sweep_axes() == [
        ("scenario.kind", ["cross", "missing"]),
        ("reg.enabled", [True, False]),
        ("seed", [0, 1, 2]),
        ("fl.server_lr", [None, 0.1]),
    ]
    assert ExperimentConfig.from_sources(None).sweep_axes() == []


@pytest.mark.parametrize(
    "grid, phrase",
    [
        ("fl.warp=1|2", "unknown key 'fl.warp'"),
        ("synth.dims=4|8", "cannot be an axis"),
        ("out_dir=a|b", "cannot be an axis"),
        ("sweep.grid=seed=1|2", "cannot be an axis"),
        ("seed=1|2,seed=3", "given twice"),
        ("seed=one|2", "axis 'seed'"),
        ("scenario.alpha=1|1.0", "repeats a value"),
        ("seed", "KEY=V1"),
    ],
)
def test_sweep_axes_rejected(grid, phrase):
    with pytest.raises(ValueError, match=phrase):
        ExperimentConfig.from_sources(None, [f"sweep.grid={grid}"])


# ---------- config text fuzzing ----------

# str.splitlines breaks lines at all of these, so a one-line value holds none
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
one_line = st.text(st.characters(blacklist_characters=LINE_BREAKS, blacklist_categories=("Cs",)), max_size=16)
padding = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def config_documents(draw):
    """Blank, comment and `key = value` lines over SCHEMA keys, plus the
    last stripped value each key was given."""
    lines, expected = [], {}
    for kind in draw(st.lists(st.sampled_from(["blank", "comment", "pair"]), max_size=25)):
        if kind == "blank":
            lines.append(draw(padding))
        elif kind == "comment":
            lines.append(draw(padding) + "#" + draw(one_line))
        else:
            key, value = draw(st.sampled_from(sorted(SCHEMA))), draw(one_line)
            lines.append(f"{draw(padding)}{key}{draw(padding)}={value}")
            expected[key] = value.strip()
    return lines, expected


@settings(max_examples=200, deadline=None)
@given(config_documents())
def test_config_text_keeps_last_value_per_key(document):
    lines, expected = document
    assert parse_config_text("\n".join(lines)) == expected


def _bad_line(text):
    stripped = text.strip()
    return bool(stripped) and not stripped.startswith("#")


no_equals = one_line.filter(lambda t: "=" not in t and _bad_line(t))
unknown_key = st.tuples(one_line.filter(lambda t: "=" not in t and t.strip() not in SCHEMA), one_line).map(
    lambda kv: f"{kv[0]}={kv[1]}"
).filter(_bad_line)


@settings(max_examples=200, deadline=None)
@given(config_documents(), st.one_of(no_equals, unknown_key), st.integers(min_value=0))
def test_config_text_rejects_bad_line_by_position(document, bad, where):
    lines, _ = document
    where %= len(lines) + 1
    lines.insert(where, bad)
    with pytest.raises(ValueError, match=f"^run.cfg:{where + 1}: "):
        parse_config_text("\n".join(lines), source="run.cfg")


finite = {"allow_nan": False, "allow_infinity": False}
snapshot_overrides = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers(0, 2**40).map(str),
        "out_dir": st.text(),
        "fl.rounds": st.integers(1, 10**6).map(str),
        "fl.aggregator": st.sampled_from(AGGREGATOR_KINDS),
        "fl.server_lr": st.one_of(st.just(""), st.floats(1e-300, 1e3, **finite).map(repr)),
        "local.lr": st.floats(1e-300, 1e3, **finite).map(repr),
        "reg.gamma_max": st.floats(0.0, 1e6, **finite).map(str),
        "reg.enabled": st.sampled_from(["true", "false", "yes", "0"]),
        "scenario.kind": st.sampled_from(["aligned", "missing", "cross", "hybrid"]),
    },
)


@settings(max_examples=100, deadline=None)
@given(snapshot_overrides)
@example({"out_dir": "a\nb"})
def test_snapshot_reparses_to_same_values(tmp_path_factory, overrides):
    """Every accepted config replays from its snapshot; only a value with
    a line break, which the snapshot could not hold, is refused."""
    try:
        cfg = ExperimentConfig.from_sources(None, [f"{key}={value}" for key, value in overrides.items()])
    except ValueError as err:
        assert "line break" in str(err)
        return
    path = tmp_path_factory.mktemp("snapshot") / "config.resolved"
    cfg.write_snapshot(path)
    assert ExperimentConfig.from_sources(path).values == cfg.values
