"""Ablation sweeps over architecture parameters and group-wise PSD summaries."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import ConfigError, DatasetSplit, EegcnnError, Epoch, write_csv
from .metrics import MetricsReport, evaluate
from .model import ModelConfig
from .preprocess import fork_map, one_blas_thread, welch_psd_batch
from .train import TrainConfig, train, training_work

SWEPT_FIELDS = {"kernel_size": "kernel", "out_channels": "out_channels"}
# A sweep's points train in worker processes from this much work up:
# ``training_work`` summed over the points. The pool breaks even at about
# 2e8; the bar sits above the tests' tiny sweeps (3.5e8), which stay
# in-process (the measurements are in CHANGES.md)
SWEEP_POOL_MIN_WORK = 5 * 10**8
# ``group_psd`` runs Welch on this many epochs' channel means at once: enough
# to spread its per-call cost (about 0.1 ms, against 0.06 ms per epoch of a
# 500 Hz, 5 s batch), few enough that the means it keeps stay small
PSD_BLOCK = 16


def sweep_configs(
    base: ModelConfig, parameter: str, values: tuple[int, ...]
) -> dict[int, ModelConfig]:
    """One model config per sweep value, in sweep order; only ``parameter``
    ("kernel_size" or "out_channels") differs from ``base``. ModelConfig's own
    checks reject a bad value."""
    if parameter not in SWEPT_FIELDS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; sweep_parameter must be "
                          f"one of {', '.join(SWEPT_FIELDS)}")
    if not values:
        raise ConfigError("sweep_values needs at least one value")
    try:
        return {v: replace(base, **{SWEPT_FIELDS[parameter]: v}) for v in values}
    except ConfigError as exc:  # from ModelConfig's checks
        raise ConfigError(f"sweep_values: {exc}") from None


@dataclass(frozen=True)
class AblationReport:
    reports: dict[int, MetricsReport]  # only values whose training succeeded, in sweep order
    errors: dict[int, str]
    normalized: dict[str, list[float | None]]  # per metric, aligned with successful values

    def to_csv(self, path: str | Path) -> None:
        names = MetricsReport.COLUMNS
        header = ["value", *names, *(f"normalized_{m}" for m in names)]
        write_csv(path, header, (
            [v, *r.row(), *(self.normalized[m][i] for m in names)]
            for i, (v, r) in enumerate(self.reports.items())
        ))


def normalize_metric(values) -> list[float | None]:
    """Min-max scale the defined values to [0, 1]; a constant set maps to all
    ones. An undefined value (None, as an AUC on one class) stays None rather
    than ranking as the worst."""
    defined = np.array([v for v in values if v is not None], dtype=np.float64)
    lo, hi = (defined.min(), defined.max()) if defined.size else (0.0, 0.0)
    scaled = iter(np.ones_like(defined) if hi == lo else (defined - lo) / (hi - lo))
    return [None if v is None else float(next(scaled)) for v in values]


def _sweep_point(data: DatasetSplit, train_config: TrainConfig,
                 model_configs: dict[int, ModelConfig], value: int) -> MetricsReport | str:
    """The test report of the model trained at sweep value ``value``, or the
    EegcnnError that ended it (a diverging point, say) as "<class>: <message>"."""
    try:
        history = train(data, train_config, model_configs[value])
        return evaluate(history.best_checkpoint, data.test)
    except EegcnnError as exc:  # record and keep sweeping
        return f"{type(exc).__name__}: {exc}"


def run_sweep(
    data: DatasetSplit, train_config: TrainConfig, model_configs: dict[int, ModelConfig]
) -> AblationReport:
    """Train/evaluate once per sweep value, with the same training config (and
    so the same seed) at every point, and report the points in the dict's
    order. Only an EegcnnError is recorded in ``errors``; any other ends the
    sweep.

    Every point trains on one BLAS thread (``one_blas_thread``), whatever the
    caller runs, so its bytes do not depend on where it runs. The points go
    through ``fork_map`` largest model first, so the longest does not start
    last, and the first in that order to raise another error raises it."""
    if not data.train or not data.validation or not data.test:
        raise ValueError("all three partitions must be non-empty for a sweep")
    order = sorted(model_configs, key=lambda v: model_configs[v].size, reverse=True)
    work = sum(training_work(train_config.epochs, len(data.train), data.train[0].data.shape[-1],
                             c.size) for c in model_configs.values())
    with one_blas_thread():
        done = dict(zip(order, fork_map(_sweep_point, order, (data, train_config, model_configs),
                                        lambda v: f"sweep value {v} was trained",
                                        work, SWEEP_POOL_MIN_WORK, blas=True)))
    reports = {v: done[v] for v in model_configs if isinstance(done[v], MetricsReport)}
    errors = {v: done[v] for v in model_configs if isinstance(done[v], str)}
    normalized = {m: normalize_metric([getattr(r, m) for r in reports.values()])
                  for m in MetricsReport.COLUMNS}
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


def group_psd(epochs: Iterable[Epoch], fs: float) -> GroupPsd:
    """Channel-average each epoch, Welch PSD per epoch, then mean +- SEM per
    label. One pass over ``epochs`` holds each epoch's PSD and at most
    PSD_BLOCK channel means per label, which go through Welch together;
    Welch treats each row alone, so the blocks do not change the bytes."""
    means: dict[int, list[np.ndarray]] = {}  # label -> channel means awaiting Welch
    power: dict[int, list[np.ndarray]] = {}  # label -> blocks of PSD rows
    freqs = None

    def welch(label: int) -> None:
        nonlocal freqs
        freqs, rows = welch_psd_batch(np.stack(means.pop(label)), fs)
        power.setdefault(label, []).append(rows)

    for ep in epochs:
        # numpy sums a contiguous axis pairwise, so the channels of an epoch that
        # is a view of an F-ordered recording are averaged as a C-order copy
        means.setdefault(ep.label, []).append(np.ascontiguousarray(ep.data).mean(axis=0))
        if len(means[ep.label]) == PSD_BLOCK:
            welch(ep.label)
    for label in list(means):
        welch(label)
    labels = sorted(power)
    if len(labels) < 2:
        raise ConfigError("group PSD needs epochs from both classes")
    mean, sem = {}, {}
    for lb in labels:
        rows = np.concatenate(power[lb])
        mean[lb] = rows.mean(axis=0)
        n = rows.shape[0]
        sem[lb] = rows.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(rows.shape[1])
    return GroupPsd(freqs=freqs, mean=mean, sem=sem)
