"""Ablation sweeps over architecture parameters and group-wise PSD summaries."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import DatasetSplit, Epoch, write_csv
from .metrics import MetricsReport, evaluate
from .model import ModelConfig
from .preprocess import welch_psd_batch
from .train import TrainConfig, train

_SWEPT_FIELDS = {"kernel_size": "kernel", "out_channels": "out_channels"}
_METRIC_NAMES = ("precision", "recall", "f1", "auc", "accuracy")


def sweep_configs(
    base: ModelConfig, parameter: str, values: tuple[int, ...]
) -> dict[int, ModelConfig]:
    """One model config per sweep value, in sweep order; only ``parameter``
    ("kernel_size" or "out_channels") differs from ``base``. ModelConfig's own
    checks reject a bad value."""
    if parameter not in _SWEPT_FIELDS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    return {v: replace(base, **{_SWEPT_FIELDS[parameter]: v}) for v in values}


@dataclass(frozen=True)
class AblationReport:
    reports: dict[int, MetricsReport]  # only values whose training succeeded, in sweep order
    errors: dict[int, str]
    normalized: dict[str, np.ndarray]  # per metric, aligned with successful values

    def to_csv(self, path: str | Path) -> None:
        header = ["value", *_METRIC_NAMES, *(f"normalized_{m}" for m in _METRIC_NAMES)]
        write_csv(path, header, (
            [v, r.precision, r.recall, r.f1, r.auc, r.accuracy,
             *(self.normalized[m][i] for m in _METRIC_NAMES)]
            for i, (v, r) in enumerate(self.reports.items())
        ))


def normalize_metric(values: np.ndarray) -> np.ndarray:
    """Min-max scale to [0, 1]; a constant array maps to all ones."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = np.min(values), np.max(values)
    if hi == lo:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


def run_sweep(
    data: DatasetSplit, train_config: TrainConfig, model_configs: dict[int, ModelConfig]
) -> AblationReport:
    """Train/evaluate once per sweep value, in the dict's order, with the same
    training config (and so the same seed) at every point."""
    if not data.train or not data.validation or not data.test:
        raise ValueError("all three partitions must be non-empty for a sweep")
    reports: dict[int, MetricsReport] = {}
    errors: dict[int, str] = {}
    for value, model_config in model_configs.items():
        try:
            history = train(data, train_config, model_config)
            reports[value] = evaluate(history.best_checkpoint, data.test)
        except Exception as exc:  # record and keep sweeping
            errors[value] = f"{type(exc).__name__}: {exc}"
    normalized = {}
    for m in _METRIC_NAMES:
        raw = np.array(
            [getattr(r, m) if getattr(r, m) is not None else 0.0 for r in reports.values()]
        )
        normalized[m] = normalize_metric(raw) if reports else np.array([])
    return AblationReport(reports=reports, errors=errors, normalized=normalized)


@dataclass(frozen=True)
class GroupPsd:
    freqs: np.ndarray
    mean: dict[int, np.ndarray]  # label -> mean PSD across epochs
    sem: dict[int, np.ndarray]  # label -> standard error of the mean

    def to_csv(self, path: str | Path) -> None:
        labels = sorted(self.mean)
        columns = [self.freqs] + [a for lb in labels for a in (self.mean[lb], self.sem[lb])]
        header = ["freq", *(f"{stat}_{lb}" for lb in labels for stat in ("mean", "sem"))]
        write_csv(path, header, np.stack(columns, axis=1).tolist())


def group_psd(epochs: list[Epoch], fs: float) -> GroupPsd:
    """Channel-average each epoch, Welch PSD per epoch, then mean +- SEM per label."""
    labels = sorted({ep.label for ep in epochs})
    if len(labels) < 2:
        raise ValueError("group PSD needs epochs from both classes")
    freqs = None
    mean, sem = {}, {}
    for lb in labels:
        stack = np.stack([ep.data.mean(axis=0) for ep in epochs if ep.label == lb])
        freqs, power = welch_psd_batch(stack, fs)
        mean[lb] = power.mean(axis=0)
        n = power.shape[0]
        sem[lb] = power.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(power.shape[1])
    return GroupPsd(freqs=freqs, mean=mean, sem=sem)
