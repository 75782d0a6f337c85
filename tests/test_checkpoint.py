"""Checkpoint loaders: a file loads if and only if save_checkpoint or
save_server_state could have written it."""

import copy
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import randomize_delta
from fedmm.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from fedmm.server import AGGREGATOR_KINDS, ServerState, init_server_state, load_server_state, save_server_state
from fedmm.tensorio import read_tensor_file, write_tensor_file
from test_server import rewrite_tensor_file, saved_checkpoint


def set_first(name, value):
    """An edit that sets the first entry of array `name` to value."""
    return lambda meta, arrays: arrays[name].reshape(-1).__setitem__(0, value)


def rename_trunk_2(meta, arrays):
    # the default model's layer 8; the parent read trunk.1's arrays into it
    assert meta["layers"][8]["name"] == "trunk.2"
    meta["layers"][8]["name"] = "trunk.1"


def move_to_end(name):
    return lambda meta, arrays: arrays.update({name: arrays.pop(name)})


@pytest.mark.parametrize(
    "kind,edit,message",
    [
        pytest.param("server", set_first("first_moment", math.nan), "array 'first_moment' is not finite", id="nan-first-moment"),
        pytest.param("server", set_first("second_moment", -1.0), "array 'second_moment' has a negative entry", id="negative-second-moment"),
        pytest.param("server", set_first("head.up", math.inf), "array 'head.up' is not finite", id="inf-global-adapter"),
        pytest.param("model", set_first("head.down", math.nan), "array 'head.down' is not finite", id="nan-adapter"),
        pytest.param("model", set_first("enc0.0.weight", math.nan), "array 'enc0.0.weight' is not finite", id="nan-base-weight"),
        pytest.param("model", set_first("enc0.0.bias", 0.5), "array 'enc0.0.bias' is not zero", id="nonzero-bias"),
        pytest.param("model", set_first("head.bias", -0.0), "array 'head.bias' is not zero", id="negative-zero-bias"),
        pytest.param("model", lambda meta, arrays: arrays.update(extra=np.zeros(2)), "array #44 is 'extra', expected None", id="extra-array"),
        pytest.param("model", lambda meta, arrays: meta.update(note="x"), "header key #4 is 'note', expected None", id="unknown-model-key"),
        pytest.param("server", lambda meta, arrays: meta.update(note="x"), "header key #11 is 'note', expected None", id="unknown-server-key"),
        pytest.param("model", rename_trunk_2, "array #32 is 'trunk.2.weight', expected 'trunk.1.weight'", id="trunk-2-renamed-trunk-1"),
        pytest.param("model", move_to_end("head.up"), "array #42 is 'head.down', expected 'head.up'", id="arrays-reordered"),
    ],
)
def test_loaders_reject_corruption(tmp_path, kind, edit, message):
    path, load = saved_checkpoint(tmp_path, kind, ModelConfig())
    rewrite_tensor_file(path, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load(path)


def edit_header(path, old, new):
    """Replace the one occurrence of the bytes old in path's header line by
    new: a header the writer cannot write, as it refuses non-finite values
    and never repeats a key."""
    header, payload = path.read_bytes().split(b"\n", 1)
    assert header.count(old) == 1, (old, header)
    path.write_bytes(header.replace(old, new) + b"\n" + payload)


@pytest.mark.parametrize(
    "kind,old,new,message",
    [
        pytest.param("server", b'"round": 0', b'"round": 5, "round": 0', "key 'round' appears twice in one object", id="server-round-twice"),
        pytest.param("model", b'"adapter_alpha": 4.0', b'"adapter_alpha": 1.0, "adapter_alpha": 4.0', "key 'adapter_alpha' appears twice in one object", id="model-alpha-twice"),
        pytest.param("server", b'"lr": 0.01', b'"lr": Infinity', "Infinity is not a finite number", id="infinite-lr"),
        pytest.param("server", b'"tau": 0.001', b'"tau": Infinity', "Infinity is not a finite number", id="infinite-tau"),
        pytest.param("model", b'"adapter_alpha": 4.0', b'"adapter_alpha": Infinity', "Infinity is not a finite number", id="infinite-alpha"),
        pytest.param("server", b'"lr": 0.01', b'"lr": 1e400', "1e400 is not a finite number", id="overflowing-lr"),
    ],
)
def test_loaders_reject_header_the_writer_cannot_write(tmp_path, kind, old, new, message):
    path, load = saved_checkpoint(tmp_path, kind, ModelConfig())
    edit_header(path, old, new)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: header line is not UTF-8 JSON: {re.escape(message)}$"):
        load(path)


def arrays_first(path):
    """Move the header's `arrays` key from last to first: the metadata
    keys keep their order."""
    header, payload = path.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    path.write_bytes(json.dumps({"arrays": meta.pop("arrays"), **meta}).encode("utf-8") + b"\n" + payload)


HEAD_DOWN = b'{"name": "head.down", "shape": [4, 32]}'


@pytest.mark.parametrize("kind", ["model", "server"])
@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(
            lambda path: edit_header(path, HEAD_DOWN, b'{"name": "head.down", "shape": [4, 32], "dtype": "<f8"}'),
            "array entry {'name': 'head.down', 'shape': [4, 32], 'dtype': '<f8'} does not hold the keys name and shape alone, in that order",
            id="entry-with-a-third-key",
        ),
        pytest.param(
            lambda path: edit_header(path, HEAD_DOWN, b'{"shape": [4, 32], "name": "head.down"}'),
            "array entry {'shape': [4, 32], 'name': 'head.down'} does not hold the keys name and shape alone, in that order",
            id="entry-keys-swapped",
        ),
        pytest.param(arrays_first, "header is not an object whose last key is an `arrays` list", id="arrays-not-last"),
    ],
)
def test_loaders_reject_array_manifest_the_writer_cannot_write(tmp_path, kind, edit, message):
    path, load = saved_checkpoint(tmp_path, kind, ModelConfig())
    edit(path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load(path)


def test_loaders_reject_the_other_kind(tmp_path):
    model, _ = saved_checkpoint(tmp_path, "model")
    server, _ = saved_checkpoint(tmp_path, "server")
    with pytest.raises(ValueError, match=f"^{re.escape(str(model))}: header key 'kind' must be 'server', got 'model'$"):
        load_server_state(model)
    with pytest.raises(ValueError, match=f"^{re.escape(str(server))}: header key 'kind' must be 'model', got 'server'$"):
        load_checkpoint(server)


# ---------- fuzzer ----------

def write_any_header(path, meta, arrays):
    """write_tensor_file's bytes, except that meta may hold a NaN or an
    infinity, which the writer refuses and every loader must reject."""
    write_tensor_file(path, {}, arrays)
    manifest, payload = path.read_bytes().split(b"\n", 1)
    header = {**meta, "arrays": json.loads(manifest)["arrays"]}
    path.write_bytes(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n" + payload)


LOADERS = {"model": load_checkpoint, "server": load_server_state}
SAVERS = {"model": lambda path, loaded: save_checkpoint(path, *loaded), "server": save_server_state}


def saved_state(path, kind, cfg, seed):
    """Save a model, or a server state whose every field is set, of cfg."""
    base, delta = init_model(cfg)
    delta = randomize_delta(delta, seed=seed)
    if kind == "model":
        save_checkpoint(path, base, delta)
        return
    gen = np.random.default_rng(seed)
    width = delta.flat.size
    state = replace(
        init_server_state("yogi", delta), first_moment=gen.normal(size=width), second_moment=gen.random(width),
        momentum_buf=gen.normal(size=width), round=7, beta1=0.8, tau=2e-3,
    )
    save_server_state(path, state)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """Each kind's file for every config of the grid of
    tests/test_model.py::test_layout_equals_reference_counting_rule, as
    (kind, header, arrays), and a scratch path for mutated files."""
    root = tmp_path_factory.mktemp("grid")
    files = []
    for modalities in (1, 2, 3):
        for enc in range(4):
            for trunk in range(4):
                cfg = ModelConfig(modality_dims=(3, 4, 5)[:modalities], hidden=6, encoder_depth=enc, trunk_depth=trunk, rank=2)
                for kind in LOADERS:
                    path = root / f"{kind}-{modalities}-{enc}-{trunk}.bin"
                    saved_state(path, kind, cfg, seed=len(files))
                    files.append((kind, *read_tensor_file(path)))
    return files, root / "mutated.bin"


def state_of(kind, loaded):
    """Everything a loaded checkpoint holds, arrays as bytes and other
    values as repr, so a float read back as an int differs."""
    if kind == "model":
        base, delta = loaded
        rest = [base.flat, *base.biases]
    else:
        delta = loaded.global_delta
        rest = [getattr(loaded, f.name) for f in fields(ServerState) if f.name != "global_delta"]
    values = [delta.specs, delta.rank, delta.adapter_alpha, delta.flat, *rest]
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in values]


# What loading a mutated file must do: raise, load, or either (a header
# value the key's rule may admit).
REJECT, LOAD, EITHER = "reject", "load", "either"
_json_value = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.floats(), st.floats(0, 1), st.text(max_size=3),
    st.sampled_from(AGGREGATOR_KINDS),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _entry(draw, meta):
    """The header itself, or one of its `layers` entries."""
    return draw(st.sampled_from([meta, *meta["layers"]]))


def _pick(draw, arrays):
    return draw(st.sampled_from(list(arrays)))


def _replace_items(arrays, items):
    arrays.clear()
    arrays.update(items)


def header_value(draw, meta, arrays):
    entry = _entry(draw, meta)
    entry[draw(st.sampled_from(sorted(entry)))] = draw(_json_value)
    return EITHER


def int_adapter_alpha(draw, meta, arrays):
    # loads as a float, so the first save writes other bytes and the next the same
    meta["adapter_alpha"] = draw(st.integers(1, 8))
    return LOAD


def key_dropped(draw, meta, arrays):
    entry = _entry(draw, meta)
    del entry[draw(st.sampled_from(sorted(entry)))]
    return REJECT


def key_added(draw, meta, arrays):
    entry = _entry(draw, meta)
    entry[draw(st.text(max_size=6).filter(lambda k: k not in entry and k != "arrays"))] = draw(_json_value)
    return REJECT


def layer_renamed(draw, meta, arrays):
    """A `layers` entry renamed in the header alone, its arrays not."""
    entry = draw(st.sampled_from(meta["layers"]))
    names = st.one_of(st.sampled_from([e["name"] for e in meta["layers"]]), st.text(max_size=6))
    entry["name"] = draw(names.filter(lambda n: n != entry["name"]))
    return REJECT


def layer_and_arrays_renamed(draw, meta, arrays):
    """A layer renamed in the header and in its arrays' names: a file the
    writer could have written, under another name."""
    entry = draw(st.sampled_from(meta["layers"]))
    old = entry["name"]
    entry["name"] = f"renamed-{old}"
    _replace_items(arrays, [("renamed-" + n if n.rsplit(".", 1)[0] == old else n, a) for n, a in arrays.items()])
    return LOAD


def depth_moved(draw, meta, arrays):
    draw(st.sampled_from(meta["layers"]))["depth"] += draw(st.sampled_from([-2, -1, 1, 2]))
    return REJECT


def array_renamed(draw, meta, arrays):
    name = _pick(draw, arrays)
    _replace_items(arrays, [(n + "x" if n == name else n, a) for n, a in arrays.items()])
    return REJECT


def array_reshaped(draw, meta, arrays):
    name = _pick(draw, arrays)
    arrays[name] = arrays[name].reshape(-1) if arrays[name].ndim == 2 else arrays[name].reshape(1, -1)
    return REJECT


def array_dropped(draw, meta, arrays):
    del arrays[_pick(draw, arrays)]
    return REJECT


def array_added(draw, meta, arrays):
    items = list(arrays.items())
    items.insert(draw(st.integers(0, len(items))), ("extra", np.zeros(draw(st.lists(st.integers(0, 3), max_size=2)))))
    _replace_items(arrays, items)
    return REJECT


def arrays_reordered(draw, meta, arrays):
    items = list(arrays.items())
    i, j = draw(st.lists(st.integers(0, len(items) - 1), min_size=2, max_size=2, unique=True))
    items[i], items[j] = items[j], items[i]
    _replace_items(arrays, items)
    return REJECT


def float_not_finite(draw, meta, arrays):
    flat = arrays[_pick(draw, arrays)].reshape(-1)
    flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return REJECT


def second_moment_negative(draw, meta, arrays):
    flat = arrays["second_moment"]
    flat[draw(st.integers(0, flat.size - 1))] = -draw(st.floats(min_value=5e-324, max_value=1e300))
    return REJECT


def payload_truncated(draw, raw):
    return raw[: -draw(st.integers(1, len(raw)))]  # down to an empty file


def payload_extended(draw, raw):
    return raw + draw(st.binary(min_size=1, max_size=16))


EDITS = [
    header_value, int_adapter_alpha, key_dropped, key_added, layer_renamed, layer_and_arrays_renamed, depth_moved,
    array_renamed, array_reshaped, array_dropped, array_added, arrays_reordered, float_not_finite, second_moment_negative,
]
PAYLOAD_EDITS = [payload_truncated, payload_extended]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loaders_reject_each_mutation_or_round_trip(grid, data):
    files, path = grid
    kind, meta, arrays = data.draw(st.sampled_from(files))
    meta, arrays = copy.deepcopy(meta), {name: arr.copy() for name, arr in arrays.items()}
    edit = data.draw(st.sampled_from([e for e in EDITS + PAYLOAD_EDITS if kind == "server" or e is not second_moment_negative]))
    expect = REJECT if edit in PAYLOAD_EDITS else edit(data.draw, meta, arrays)
    write_any_header(path, meta, list(arrays.items()))
    if edit in PAYLOAD_EDITS:
        path.write_bytes(edit(data.draw, path.read_bytes()))
    try:
        loaded = LOADERS[kind](path)
    except ValueError as err:
        assert expect != LOAD and str(err).startswith(f"{path}: "), (edit.__name__, err)
        return
    assert expect != REJECT, edit.__name__
    again = path.with_name("again.bin")
    SAVERS[kind](again, loaded)
    reloaded = LOADERS[kind](again)
    assert state_of(kind, reloaded) == state_of(kind, loaded)
    first = again.read_bytes()
    SAVERS[kind](again, reloaded)
    assert again.read_bytes() == first
