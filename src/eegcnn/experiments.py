"""Ablation sweeps over architecture parameters and group-wise PSD summaries."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import DatasetSplit, Epoch
from .metrics import MetricsReport, evaluate
from .model import ModelConfig
from .preprocess import welch_psd_batch
from .train import TrainConfig, train

_SWEPT_FIELDS = {"kernel_size": "kernel", "out_channels": "out_channels"}
_METRIC_NAMES = ("precision", "recall", "f1", "auc", "accuracy")


@dataclass(frozen=True)
class SweepConfig:
    parameter: str  # "kernel_size" or "out_channels"
    values: tuple[int, ...]
    base_train_config: TrainConfig
    base_model_config: ModelConfig
    seed_policy: str = "fixed"  # "fixed" or "per_value"

    def __post_init__(self):
        if self.parameter not in _SWEPT_FIELDS:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if self.parameter == "kernel_size" and any(v % 2 == 0 or v < 3 for v in self.values):
            raise ValueError(f"kernel values must be odd and >= 3, got {self.values}")
        if self.parameter == "out_channels" and any(v < 1 for v in self.values):
            raise ValueError(f"channel values must be >= 1, got {self.values}")
        if self.seed_policy not in ("fixed", "per_value"):
            raise ValueError(f"unknown seed_policy {self.seed_policy!r}")

    def model_config_for(self, value: int) -> ModelConfig:
        return replace(self.base_model_config, **{_SWEPT_FIELDS[self.parameter]: value})

    def train_config_for(self, idx: int) -> TrainConfig:
        if self.seed_policy == "per_value":
            return replace(self.base_train_config, seed=self.base_train_config.seed + idx)
        return self.base_train_config


@dataclass(frozen=True)
class AblationReport:
    parameter: str
    values: tuple[int, ...]
    reports: dict[int, MetricsReport]  # only values whose training succeeded
    errors: dict[int, str]
    normalized: dict[str, np.ndarray]  # per metric, aligned with successful values

    def to_csv(self, path: str | Path) -> None:
        cols = [f"{m}" for m in _METRIC_NAMES] + [f"normalized_{m}" for m in _METRIC_NAMES]
        ok_values = [v for v in self.values if v in self.reports]
        with Path(path).open("w") as fh:
            fh.write("value," + ",".join(cols) + "\n")
            for i, v in enumerate(ok_values):
                r = self.reports[v]
                raw = [r.precision, r.recall, r.f1, r.auc, r.accuracy]
                norm = [self.normalized[m][i] for m in _METRIC_NAMES]
                cells = ["" if x is None else repr(float(x)) for x in raw + norm]
                fh.write(f"{v}," + ",".join(cells) + "\n")


def normalize_metric(values: np.ndarray) -> np.ndarray:
    """Min-max scale to [0, 1]; a constant array maps to all ones."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = np.min(values), np.max(values)
    if hi == lo:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


def run_sweep(config: SweepConfig, data: DatasetSplit) -> AblationReport:
    """Train/evaluate once per sweep value; only the swept parameter changes."""
    if not data.train or not data.validation or not data.test:
        raise ValueError("all three partitions must be non-empty for a sweep")
    reports: dict[int, MetricsReport] = {}
    errors: dict[int, str] = {}
    for i, value in enumerate(config.values):
        try:
            history = train(data, config.train_config_for(i), config.model_config_for(value))
            reports[value] = evaluate(history.best_checkpoint, data.test)
        except Exception as exc:  # record and keep sweeping
            errors[value] = f"{type(exc).__name__}: {exc}"
    normalized = {}
    ok = [v for v in config.values if v in reports]
    for m in _METRIC_NAMES:
        raw = np.array(
            [getattr(reports[v], m) if getattr(reports[v], m) is not None else 0.0 for v in ok]
        )
        normalized[m] = normalize_metric(raw) if ok else np.array([])
    return AblationReport(
        parameter=config.parameter,
        values=config.values,
        reports=reports,
        errors=errors,
        normalized=normalized,
    )


@dataclass(frozen=True)
class GroupPsd:
    freqs: np.ndarray
    mean: dict[int, np.ndarray]  # label -> mean PSD across epochs
    sem: dict[int, np.ndarray]  # label -> standard error of the mean

    def to_csv(self, path: str | Path) -> None:
        labels = sorted(self.mean)
        header = "freq," + ",".join(f"mean_{lb},sem_{lb}" for lb in labels)
        with Path(path).open("w") as fh:
            fh.write(header + "\n")
            for i, f in enumerate(self.freqs.tolist()):
                cells = []
                for lb in labels:
                    cells += [repr(float(self.mean[lb][i])), repr(float(self.sem[lb][i]))]
                fh.write(f"{f!r}," + ",".join(cells) + "\n")


def group_psd(
    epochs: list[Epoch], fs: float, window_len: int | None = None, overlap: float = 0.5
) -> GroupPsd:
    """Channel-average each epoch, Welch PSD per epoch, then mean +- SEM per label."""
    labels = sorted({ep.label for ep in epochs})
    if len(labels) < 2:
        raise ValueError("group PSD needs epochs from both classes")
    freqs = None
    mean, sem = {}, {}
    for lb in labels:
        stack = np.stack([ep.data.mean(axis=0) for ep in epochs if ep.label == lb])
        freqs, power = welch_psd_batch(stack, fs, window_len=window_len, overlap=overlap)
        mean[lb] = power.mean(axis=0)
        n = power.shape[0]
        sem[lb] = power.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(power.shape[1])
    return GroupPsd(freqs=freqs, mean=mean, sem=sem)
