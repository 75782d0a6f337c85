"""Evaluation metrics.

roc_auc uses the rank-sum identity with average ranks on ties: one sort
and array passes over the tie groups instead of all-pairs comparison.
macro_f1 averages one-vs-rest F1 across every class index, counting
classes nobody predicted or possessed as 0.

A run builds its test set once, as an EvalSet: the set checks, when it
is built, that its metric can score it, and every evaluate call scores
its prebuilt chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DatasetManifest
from .model import AdapterDelta, Batch, BaseWeights, Grouped, effective_weights, forward, forward_scratch, make_batch, softmax_probs

METRIC_KINDS = ("auto", "roc_auc", "macro_f1")


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties
    counted half. Average ranks make that exact under ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal-length 1-d")
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos + neg != labels.size:
        raise ValueError("labels must be 0 or 1")
    if pos == 0:
        raise ValueError("no positive samples present")
    if neg == 0:
        raise ValueError("no negative samples present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # tie groups of the sorted scores, first i to last j; nan equals nothing
    first = np.flatnonzero(np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1]]))
    last = np.append(first[1:], scores.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def macro_f1(predictions: np.ndarray, labels: np.ndarray, class_count: int) -> tuple[float, tuple[float, ...]]:
    """Unweighted mean of per-class F1 over all class_count indices."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValueError("predictions and labels must be equal-length 1-d")
    if labels.size == 0:
        raise ValueError("empty input")
    for name, arr in (("predictions", predictions), ("labels", labels)):
        if arr.min() < 0 or arr.max() >= class_count:
            raise ValueError(f"{name} outside [0, {class_count})")
    per_class = []
    for c in range(class_count):
        tp = int(((predictions == c) & (labels == c)).sum())
        fp = int(((predictions == c) & (labels != c)).sum())
        fn = int(((predictions != c) & (labels == c)).sum())
        denom = 2 * tp + fp + fn
        per_class.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(per_class)), tuple(per_class)


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or labels.size == 0:
        raise ValueError("predictions and labels must be equal-length and nonempty")
    return float((predictions == labels).mean())


@dataclass(eq=False)
class EvalSet:
    """A test manifest made ready to score, checked when it is built: the
    metric with auto resolved (roc_auc for two classes, macro_f1
    otherwise), and the samples in order as write-protected batches of at
    most `chunk` rows. An empty manifest, and roc_auc on a manifest that
    is not binary or lacks one of its two classes, are rejected."""

    manifest: DatasetManifest
    metric: str = "auto"
    chunk: int = 512
    chunks: list[Batch] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        manifest, labels = self.manifest, self.manifest.labels
        if not labels.size:
            raise ValueError("empty test manifest")
        if self.metric == "auto":
            self.metric = "roc_auc" if manifest.class_count == 2 else "macro_f1"
        if self.metric not in METRIC_KINDS:
            raise ValueError(f"metric must be one of {METRIC_KINDS}, got {self.metric!r}")
        if self.metric == "roc_auc":
            if manifest.class_count != 2:
                raise ValueError(f"roc_auc needs a binary test manifest, got {manifest.class_count} classes")
            for name, label in (("negative", 0), ("positive", 1)):
                if not (labels == label).any():
                    raise ValueError(f"roc_auc needs both classes, and the test manifest has no {name} samples")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        rows = range(len(manifest))
        self.chunks = [make_batch(manifest, rows[start : start + self.chunk]).freeze() for start in rows[:: self.chunk]]


def evaluate(base: BaseWeights, delta: AdapterDelta, test: EvalSet, weights: Grouped | None = None) -> dict:
    """Score the model on a prebuilt test set; returns the run log's eval
    record: the metric, its value and the accuracy, which always rides
    along. roc_auc scores the positive-class probability. One set of
    effective weights (delta's, composed here when weights is None) and
    one forward_scratch serve every chunk."""
    if weights is None:
        weights = effective_weights(base, delta)
    scratch = forward_scratch(base, max(len(batch) for batch in test.chunks))
    prob = np.concatenate([softmax_probs(forward(base, delta, batch, weights, scratch)) for batch in test.chunks], axis=0)
    labels = test.manifest.labels
    preds = prob.argmax(axis=1)
    if test.metric == "roc_auc":
        value = roc_auc(prob[:, 1], labels)
    else:
        value, _ = macro_f1(preds, labels, test.manifest.class_count)
    return {"metric": test.metric, "value": value, "accuracy": accuracy(preds, labels)}
