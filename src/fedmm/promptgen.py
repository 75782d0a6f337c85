"""Instruction-record export for external fine-tuning pipelines.

Renders partition samples into line-delimited JSON conversation records.
The user turn is a fixed multiple-choice template; setting agnostic=True
splices the clause ", without considering the modality" into both the
instruction sentence and the question, changing nothing else. Records
keep the literal "<image>" token even when the image modality is absent;
only the image path key is dropped then.

Two preset layouts ship: "stacked" puts the options on their own lines
under an "Options:" header with a text line above the question; "inline"
drops the text line and runs the options inline after "Options:". Both
share the same instruction sentence and answer tail.

Feature manifests carry no raw text or media, so the text slot renders
empty unless the caller passes raw text, and image paths default to
"<sample id>.png". Modalities are matched by the names "image" and
"text".
"""

from __future__ import annotations

import string
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

from .data import DatasetManifest, Sample
from .partitioner import ClientPartition
from .tensorio import dumps, write_lines

AGNOSTIC_CLAUSE = ", without considering the modality"
ANSWER_TAIL = (
    "Answer with the option's letter from the given choices directly "
    "and only give the best option. The best answer is:"
)
STYLES = ("stacked", "inline")


@dataclass(frozen=True)
class TaskSpec:
    """Question text plus ordered option labels; letters run A, B, ... in
    option order and double as class indices."""

    question: str
    options: tuple[str, ...]
    style: str = "stacked"

    def __post_init__(self) -> None:
        if len(self.options) < 2:
            raise ValueError(f"need at least 2 options, got {len(self.options)}")
        if len(self.options) > 26:
            raise ValueError("more options than letters")
        if self.style not in STYLES:
            raise ValueError(f"style must be one of {STYLES}, got {self.style!r}")
        if not self.question:
            raise ValueError("question must be nonempty")

    def letter(self, index: int) -> str:
        if not 0 <= index < len(self.options):
            raise ValueError(f"class index {index} outside [0, {len(self.options)})")
        return string.ascii_uppercase[index]

    def option_line(self, index: int) -> str:
        return f"({self.letter(index)}) {self.options[index]}"


HATEFUL_MEMES = TaskSpec(
    question="Is the content hateful",
    options=("not-hateful", "hateful"),
    style="stacked",
)

CRISIS_CATEGORIES = (
    "affected individuals",
    "infrastructure and utility damage",
    "injured or dead people",
    "missing or found people",
    "rescue volunteering or donation effort",
    "vehicle damage",
    "other relevant information",
    "not humanitarian",
)

CRISIS_MMD = TaskSpec(
    question="What humanitarian category does the content belong to",
    options=CRISIS_CATEGORIES,
    style="inline",
)


@dataclass(frozen=True)
class InstructionRecord:
    id: str
    image: str | None
    user: str
    assistant: str

    def to_json_obj(self) -> dict:
        obj: dict = {"id": self.id}
        if self.image is not None:
            obj["image"] = self.image
        obj["conversations"] = [
            {"role": "user", "content": self.user},
            {"role": "assistant", "content": self.assistant},
        ]
        return obj


def serialize_record(record: InstructionRecord) -> str:
    return dumps(record.to_json_obj())


def format_record(
    sample: Sample,
    task: TaskSpec,
    agnostic: bool,
    mask: Sequence[bool] | None = None,
    modality_names: tuple[str, ...] = ("image", "text"),
    text: str | None = None,
    image_path: str | None = None,
) -> InstructionRecord:
    """Render one sample. mask, aligned with modality_names, narrows which
    modalities count as present; it defaults to the sample's own keys."""
    if not 0 <= sample.label < len(task.options):
        raise ValueError(f"sample {sample.id!r} label {sample.label} has no option")
    if mask is None:
        mask = tuple(name in sample.features for name in modality_names)
    present = dict(zip(modality_names, mask))
    clause = AGNOSTIC_CLAUSE if agnostic else ""
    options_block = "\n".join(task.option_line(i) for i in range(len(task.options)))
    head = f"<image>\nSelect the best answer to the following multiple-choice question{clause}.\n"
    question = f"{task.question}{clause}?"
    if task.style == "stacked":
        text_slot = text if (text is not None and present.get("text", False)) else ""
        user = f"{head}{text_slot}\n{question}\nOptions:\n{options_block}\n{ANSWER_TAIL}"
    else:
        user = f"{head}{question}\nOptions:{options_block} {ANSWER_TAIL}"
    image = None
    if present.get("image", False):
        image = image_path if image_path is not None else f"{sample.id}.png"
    return InstructionRecord(
        id=sample.id,
        image=image,
        user=user,
        assistant=task.option_line(sample.label),
    )


def export_partition(
    partition: ClientPartition,
    manifest: DatasetManifest,
    task: TaskSpec,
    agnostic: bool,
    out_dir: str | Path,
) -> int:
    """One UTF-8 JSONL file per client, empty clients included as empty
    files. Returns the number of files written."""
    if manifest.class_count != len(task.options):
        raise ValueError(
            f"manifest has {manifest.class_count} classes but task has {len(task.options)} options"
        )
    names = tuple(m.name for m in manifest.modalities)
    rows, masks, bounds = partition.rows.tolist(), partition.masks.tolist(), partition.bounds.tolist()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, (a, b) in enumerate(pairwise(bounds)):
        shard = zip(rows[a:b], masks[a:b])
        records = [format_record(manifest.record(row), task, agnostic, mask=mask, modality_names=names) for row, mask in shard]
        write_lines(out_dir / f"client_{k:02d}.jsonl", map(serialize_record, records))
    return len(bounds) - 1
