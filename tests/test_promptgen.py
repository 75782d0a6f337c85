import json
from pathlib import Path

import numpy as np
import pytest

from conftest import empty_shard, partition_of, round_robin_partition, shards, tiny_manifest
from fedmm.data import DatasetManifest, ModalityDescriptor, Sample
from fedmm.promptgen import (
    AGNOSTIC_CLAUSE,
    CRISIS_MMD,
    HATEFUL_MEMES,
    TaskSpec,
    export_partition,
    format_record,
    serialize_record,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def meme_sample():
    return Sample(
        id="hm-00042",
        label=1,
        features={"image": np.zeros(4), "text": np.zeros(4)},
    )


# ---------- golden files ----------

def test_golden_record_agnostic():
    record = format_record(
        meme_sample(), HATEFUL_MEMES, agnostic=True, text="you deserve nothing"
    )
    want = (GOLDEN_DIR / "hateful_memes_agnostic.jsonl").read_bytes()
    assert (serialize_record(record) + "\n").encode("utf-8") == want


def test_golden_record_plain():
    record = format_record(
        meme_sample(), HATEFUL_MEMES, agnostic=False, text="you deserve nothing"
    )
    want = (GOLDEN_DIR / "hateful_memes_plain.jsonl").read_bytes()
    assert (serialize_record(record) + "\n").encode("utf-8") == want


def test_agnostic_toggle_changes_only_the_two_clauses():
    on = format_record(meme_sample(), HATEFUL_MEMES, agnostic=True, text="abc")
    off = format_record(meme_sample(), HATEFUL_MEMES, agnostic=False, text="abc")
    assert on.user.count(AGNOSTIC_CLAUSE) == 2
    assert AGNOSTIC_CLAUSE not in off.user
    assert on.user.replace(AGNOSTIC_CLAUSE, "") == off.user
    assert (on.id, on.image, on.assistant) == (off.id, off.image, off.assistant)


# ---------- slot handling ----------

def test_absent_image_drops_path_keeps_literal():
    sample = Sample(id="x-1", label=0, features={"text": np.zeros(2)})
    record = format_record(sample, HATEFUL_MEMES, agnostic=True, text="hello")
    assert record.image is None
    assert record.user.startswith("<image>\n")
    assert "image" not in record.to_json_obj()
    assert list(record.to_json_obj()) == ["id", "conversations"]


def test_absent_text_leaves_empty_slot():
    sample = Sample(id="x-2", label=0, features={"image": np.zeros(2)})
    record = format_record(sample, HATEFUL_MEMES, agnostic=False, text="ignored")
    assert "question.\n\nIs the content hateful?" in record.user
    assert record.image == "x-2.png"


def test_feature_only_sample_has_empty_text_slot():
    record = format_record(meme_sample(), HATEFUL_MEMES, agnostic=False)
    assert "question.\n\nIs the content hateful?" in record.user


def test_mask_overrides_sample_presence():
    record = format_record(
        meme_sample(), HATEFUL_MEMES, agnostic=False, mask=(False, True), text="kept"
    )
    assert record.image is None
    assert "question.\nkept\n" in record.user


def test_explicit_image_path_wins():
    record = format_record(
        meme_sample(), HATEFUL_MEMES, agnostic=False, image_path="img/0042.jpg"
    )
    assert record.image == "img/0042.jpg"


# ---------- layouts ----------

def test_stacked_layout_exact():
    record = format_record(meme_sample(), HATEFUL_MEMES, agnostic=True, text="T")
    assert record.user == (
        "<image>\n"
        "Select the best answer to the following multiple-choice question"
        ", without considering the modality.\n"
        "T\n"
        "Is the content hateful, without considering the modality?\n"
        "Options:\n"
        "(A) not-hateful\n"
        "(B) hateful\n"
        "Answer with the option's letter from the given choices directly "
        "and only give the best option. The best answer is:"
    )
    assert record.assistant == "(B) hateful"


def test_inline_layout_exact():
    task = TaskSpec(question="Which kind is it", options=("one", "two", "three"), style="inline")
    sample = Sample(id="q-7", label=2, features={"image": np.zeros(2)})
    record = format_record(sample, task, agnostic=False)
    assert record.user == (
        "<image>\n"
        "Select the best answer to the following multiple-choice question.\n"
        "Which kind is it?\n"
        "Options:(A) one\n(B) two\n(C) three "
        "Answer with the option's letter from the given choices directly "
        "and only give the best option. The best answer is:"
    )
    assert record.assistant == "(C) three"


def test_crisis_preset_has_eight_inline_options():
    assert len(CRISIS_MMD.options) == 8
    assert CRISIS_MMD.style == "inline"
    record = format_record(
        Sample(id="c-1", label=7, features={"text": np.zeros(2)}), CRISIS_MMD, agnostic=True
    )
    assert record.assistant == "(H) not humanitarian"
    assert record.user.count(AGNOSTIC_CLAUSE) == 2


# ---------- validation ----------

def test_label_outside_options_rejected():
    bad = Sample(id="x-3", label=2, features={"image": np.zeros(2)})
    with pytest.raises(ValueError, match="label"):
        format_record(bad, HATEFUL_MEMES, agnostic=False)


def test_task_validation():
    with pytest.raises(ValueError, match="options"):
        TaskSpec(question="q", options=("only",))
    with pytest.raises(ValueError, match="style"):
        TaskSpec(question="q", options=("a", "b"), style="fancy")
    with pytest.raises(ValueError, match="letters"):
        TaskSpec(question="q", options=tuple(str(i) for i in range(27)))


def test_letters_run_from_a():
    task = TaskSpec(question="q", options=("a", "b", "c"))
    assert [task.letter(i) for i in range(3)] == ["A", "B", "C"]
    assert task.option_line(1) == "(B) b"
    with pytest.raises(ValueError, match="outside"):
        task.letter(3)


# ---------- round trip ----------

def test_record_round_trips_through_json():
    record = format_record(meme_sample(), HATEFUL_MEMES, agnostic=True, text="line one")
    obj = json.loads(serialize_record(record))
    assert obj["id"] == record.id
    assert obj["image"] == record.image
    assert obj["conversations"][0] == {"role": "user", "content": record.user}
    assert obj["conversations"][1] == {"role": "assistant", "content": record.assistant}


# ---------- exporter ----------

def binary_manifest(per_class=6, seed=0):
    return tiny_manifest(class_count=2, per_class=per_class, seed=seed)


def test_export_counts_and_order(tmp_path):
    manifest = binary_manifest()
    partition = round_robin_partition(manifest, 3)
    count = export_partition(partition, manifest, HATEFUL_MEMES, True, tmp_path)
    assert count == 3
    files = sorted(tmp_path.glob("client_*.jsonl"))
    assert [f.name for f in files] == ["client_00.jsonl", "client_01.jsonl", "client_02.jsonl"]
    total = 0
    for k, path in enumerate(files):
        lines = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == [manifest.ids[row] for row in shards(partition)[k][0]]
    assert total == len(manifest.samples)


def test_export_empty_client_writes_empty_file(tmp_path):
    manifest = binary_manifest()
    parts = [*shards(round_robin_partition(manifest, 1)), empty_shard()]
    export_partition(partition_of(parts), manifest, HATEFUL_MEMES, False, tmp_path)
    empty = tmp_path / "client_01.jsonl"
    assert empty.exists()
    assert empty.read_bytes() == b""


def test_export_deterministic_bytes(tmp_path):
    manifest = binary_manifest(seed=3)
    partition = round_robin_partition(manifest, 2)
    export_partition(partition, manifest, HATEFUL_MEMES, True, tmp_path / "a")
    export_partition(partition, manifest, HATEFUL_MEMES, True, tmp_path / "b")
    for name in ("client_00.jsonl", "client_01.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_export_rejects_class_mismatch(tmp_path):
    manifest = tiny_manifest(class_count=3)
    partition = round_robin_partition(manifest, 2)
    with pytest.raises(ValueError, match="classes"):
        export_partition(partition, manifest, HATEFUL_MEMES, False, tmp_path)


def test_export_respects_partition_masks(tmp_path):
    manifest = binary_manifest()
    n = len(manifest.samples)
    parts = [(np.arange(n), np.tile([True, False], (n, 1)))]
    export_partition(partition_of(parts), manifest, HATEFUL_MEMES, False, tmp_path)
    for line in (tmp_path / "client_00.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        assert obj["image"].endswith(".png")
