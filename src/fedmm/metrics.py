"""Evaluation metrics.

roc_auc uses the rank-sum identity with average ranks on ties, one sort
instead of all-pairs comparison. macro_f1 averages one-vs-rest F1 across
every class index, counting classes nobody predicted or possessed as 0.

A run that evaluates repeatedly assembles its test set once with
eval_chunks and hands the chunks to every evaluate call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetManifest
from .model import AdapterDelta, Batch, BaseWeights, effective_weights, forward, make_batch, softmax_probs

METRIC_KINDS = ("auto", "roc_auc", "macro_f1")


@dataclass(frozen=True)
class EvalResult:
    metric: str
    value: float
    accuracy: float
    count: int
    per_class: tuple[float, ...] | None = None


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
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
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


def eval_chunks(manifest: DatasetManifest, chunk: int = 512) -> list[Batch]:
    """The manifest's samples in order, as write-protected batches of at
    most `chunk` rows."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    ids = [s.id for s in manifest.samples]
    return [make_batch(manifest, ids[start : start + chunk]).freeze() for start in range(0, len(ids), chunk)]


def evaluate(
    base: BaseWeights,
    delta: AdapterDelta,
    manifest: DatasetManifest,
    metric: str = "auto",
    chunk: int = 512,
    chunks: list[Batch] | None = None,
) -> EvalResult:
    """Run the model over a manifest and score it.

    chunks, when given, must be eval_chunks(manifest, chunk), built once
    by a caller that evaluates the same manifest many times. Each layer's
    effective weight is composed once per call, not once per chunk.

    auto resolves to roc_auc for two classes (positive-class probability
    as the score) and macro_f1 otherwise. Accuracy always rides along.
    """
    if metric not in METRIC_KINDS:
        raise ValueError(f"metric must be one of {METRIC_KINDS}, got {metric!r}")
    if not manifest.samples:
        raise ValueError("empty manifest")
    if metric == "auto":
        metric = "roc_auc" if manifest.class_count == 2 else "macro_f1"
    if chunks is None:
        chunks = eval_chunks(manifest, chunk)
    weights = effective_weights(base, delta)
    prob = np.concatenate([softmax_probs(forward(base, delta, batch, weights)) for batch in chunks], axis=0)
    labels = np.concatenate([batch.labels for batch in chunks])
    preds = prob.argmax(axis=1)
    acc = accuracy(preds, labels)
    if metric == "roc_auc":
        if manifest.class_count != 2:
            raise ValueError("roc_auc needs a binary manifest")
        value = roc_auc(prob[:, 1], labels)
        return EvalResult(metric="roc_auc", value=value, accuracy=acc, count=labels.size)
    value, per_class = macro_f1(preds, labels, manifest.class_count)
    return EvalResult(metric="macro_f1", value=value, accuracy=acc, count=labels.size, per_class=per_class)
