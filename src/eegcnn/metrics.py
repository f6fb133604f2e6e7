"""Confusion-matrix bookkeeping, scalar classification metrics and ROC AUC."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Epoch
from .model import ModelParams, forward


class AucUndefinedError(ValueError):
    """AUC requested with only one class present."""


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
    precision: float
    recall: float
    f1: float
    accuracy: float
    auc: float | None
    confusion: ConfusionMatrix
    n_epochs: int
    degenerate: bool = False  # a 0/0 metric was defined as 0, or AUC was undefined

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2)

    def to_csv_row(self) -> str:
        """One row in the PRC, Recall, F1, AUC, ACC column order."""
        auc = "" if self.auc is None else f"{self.auc!r}"
        return f"{self.precision!r},{self.recall!r},{self.f1!r},{auc},{self.accuracy!r}"

    def save(self, json_path: str | Path, csv_path: str | Path) -> None:
        Path(json_path).write_text(self.to_json())
        Path(csv_path).write_text("precision,recall,f1,auc,accuracy\n" + self.to_csv_row() + "\n")


def confusion(predictions: list[int], labels: list[int]) -> ConfusionMatrix:
    """Counts with PD (class 1) as the positive class."""
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions, {len(labels)} labels")
    if not predictions:
        raise ValueError("need at least one prediction")
    tp = fp = tn = fn = 0
    for p, y in zip(predictions, labels):
        if y == 1:
            tp += p == 1
            fn += p == 0
        else:
            fp += p == 1
            tn += p == 0
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def scalar_metrics(cm: ConfusionMatrix) -> dict:
    """precision/recall/f1/accuracy; any 0/0 is defined as 0 with a flag."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    degenerate = False

    def ratio(num: int, den: int) -> float:
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    precision = ratio(cm.tp, cm.tp + cm.fp)
    recall = ratio(cm.tp, cm.tp + cm.fn)
    f1 = ratio_f1(precision, recall)
    if precision + recall == 0:
        degenerate = True
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": (cm.tp + cm.tn) / cm.total,
        "degenerate": degenerate,
    }


def ratio_f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def roc_auc(scores: list[float], labels: list[int]) -> float:
    """AUC via a sorted-threshold trapezoidal ROC sweep.

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
        raise AucUndefinedError("AUC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # cumulative counts at each distinct-threshold boundary
    distinct = np.r_[np.nonzero(np.diff(sorted_scores))[0], len(scores) - 1]
    tps = np.cumsum(sorted_labels == 1)[distinct]
    fps = np.cumsum(sorted_labels == 0)[distinct]
    tpr = np.r_[0.0, tps / n_pos]
    fpr = np.r_[0.0, fps / n_neg]
    return float(np.trapezoid(tpr, fpr))


def evaluate(checkpoint: ModelParams, epochs: list[Epoch]) -> MetricsReport:
    """Eval-mode inference per epoch; each epoch is one classification instance."""
    if not epochs:
        raise ValueError("need at least one epoch to evaluate")
    preds, labels, scores = [], [], []
    for ep in epochs:
        probs = forward(checkpoint, ep.data, mode="eval").probs
        preds.append(int(np.argmax(probs)))  # tie goes to class 0
        scores.append(float(probs[1]))
        labels.append(ep.label)
    cm = confusion(preds, labels)
    scalars = scalar_metrics(cm)
    degenerate = scalars.pop("degenerate")
    try:
        auc = roc_auc(scores, labels)
    except AucUndefinedError:
        auc = None
        degenerate = True
    return MetricsReport(
        **scalars, auc=auc, confusion=cm, n_epochs=len(epochs), degenerate=degenerate
    )
