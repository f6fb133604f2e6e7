"""Confusion-matrix bookkeeping, scalar classification metrics and ROC AUC."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Epoch, TrainingDivergedError, write_csv
from .model import ModelParams, predict


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    # The paper's row, in its column order; a class attribute, not a field
    COLUMNS = ("precision", "recall", "f1", "auc", "accuracy")

    precision: float
    recall: float
    f1: float
    accuracy: float
    auc: float | None
    confusion: ConfusionMatrix
    n_epochs: int
    degenerate: bool = False  # a 0/0 metric was defined as 0, or AUC was undefined

    def row(self) -> list:
        """The values of ``COLUMNS``, in that order (an undefined AUC is None)."""
        return [getattr(self, name) for name in self.COLUMNS]

    def save(self, json_path: str | Path, csv_path: str | Path) -> None:
        Path(json_path).write_text(json.dumps(asdict(self), indent=2))
        write_csv(csv_path, self.COLUMNS, [self.row()])


def confusion(predictions: np.ndarray | list, labels: np.ndarray | list) -> ConfusionMatrix:
    """Counts with PD (class 1) as the positive class."""
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions, {len(labels)} labels")
    if len(predictions) == 0:
        raise ValueError("need at least one prediction")
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    outside = np.setdiff1d(np.concatenate([predictions, labels]), [0, 1])
    if outside.size:
        raise ValueError(f"predictions and labels must be 0 or 1, got {outside.tolist()}")
    tn, fp, fn, tp = np.bincount((2 * labels + predictions).astype(np.int64), minlength=4).tolist()
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def scalar_metrics(cm: ConfusionMatrix) -> dict:
    """precision/recall/f1/accuracy; any 0/0 is defined as 0 with a flag.
    Each 0/0 needs tp == 0, and tp == 0 makes F1's denominator 0, so the flag
    is tp == 0."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": (cm.tp + cm.tn) / cm.total,
        "degenerate": cm.tp == 0,
    }


def roc_auc(scores: list[float], labels: list[int]) -> float | None:
    """AUC via a sorted-threshold trapezoidal ROC sweep; None unless both
    classes are present.

    Equivalent to the Mann-Whitney statistic: the fraction of
    (positive, negative) pairs where the positive scores higher, ties 1/2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # cumulative counts at each distinct-threshold boundary
    distinct = np.r_[np.nonzero(sorted_scores[1:] != sorted_scores[:-1])[0], len(scores) - 1]
    tps = np.cumsum(sorted_labels == 1)[distinct]
    fps = np.cumsum(sorted_labels == 0)[distinct]
    tpr = np.r_[0.0, tps / n_pos]
    fpr = np.r_[0.0, fps / n_neg]
    # np.trapezoid(tpr, fpr) written out: that function needs numpy >= 2.0
    return float((np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0).sum())


def evaluate(checkpoint: ModelParams, epochs: Sequence[Epoch]) -> MetricsReport:
    """Eval-mode inference per epoch, each one classification instance, in one
    pass over ``epochs``. The class is the argmax of the logits (ties to class
    0), as in validation; AUC ranks by their margin."""
    if not epochs:
        raise ValueError("need at least one epoch to evaluate")
    with np.errstate(all="ignore"):  # the logits are checked next
        logits, labels = predict(checkpoint, epochs)
        margin = logits[:, 1] - logits[:, 0]
    bad = int((~np.isfinite(logits)).any(axis=1).sum())
    if bad:
        raise TrainingDivergedError(f"non-finite logits for {bad} of {len(epochs)} epochs")
    cm = confusion(logits.argmax(axis=1), labels)
    scalars = scalar_metrics(cm)
    auc = roc_auc(margin, labels)
    scalars["degenerate"] |= auc is None
    return MetricsReport(**scalars, auc=auc, confusion=cm, n_epochs=len(epochs))
