"""Cross-entropy loss, Adam and the training loop."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .data import ConfigError, DatasetSplit, Epoch, TrainingDivergedError, check_seed
from .model import ModelConfig, ModelParams, backward, forward, init_params, predict

# Adam's decay rates and epsilon, Kingma & Ba's defaults (arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 2
    learning_rate: float = 1e-4
    epochs: int = 80
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        check_seed(self.seed)


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, in ModelParams.flat order
    v: np.ndarray
    t: int = 0


@dataclass
class TrainHistory:
    epochs: list[dict]  # per-epoch {train_loss, val_loss, val_accuracy}
    best_epoch: int
    best_checkpoint: ModelParams

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"epochs": self.epochs, "best_epoch": self.best_epoch}, indent=2))


def cross_entropy(logits: np.ndarray, label) -> tuple[float | np.ndarray, np.ndarray]:
    """Softmax cross-entropy log(sum(exp(s))) - s[label], s = logits - max(logits),
    and its gradient w.r.t. the logits; finite for any finite logits. A batch of
    [..., classes] logits and int labels gives each row the bits of its own call."""
    logits, labels = np.asarray(logits, dtype=np.float64), np.asarray(label)
    onehot = np.arange(logits.shape[-1]) == labels[..., None]
    if np.count_nonzero(onehot) != labels.size:  # a label that names no class
        bad = labels[~onehot.any(axis=-1)].flat[0]
        raise ValueError(f"label {bad} out of range for {logits.shape[-1]} classes")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    z = np.exp(shifted)
    total = z.sum(axis=-1, keepdims=True)
    loss = np.log(total[..., 0]) - shifted[onehot].reshape(labels.shape)
    grad_logits = z / total - onehot  # the softmax minus the one-hot label; x - 0.0 is x
    return (float(loss) if labels.ndim == 0 else loss), grad_logits


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    state: AdamState, params: ModelParams, grads: ModelParams, config: TrainConfig
) -> tuple[AdamState, ModelParams]:
    """One Adam update with bias correction; returns fresh state and params
    (new arrays: the ones passed in are left as they are)."""
    for name, g in grads.arrays().items():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient in parameter block '{name}'")
    t = state.t + 1
    g = grads.flat
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    flat = params.flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m=m, v=v, t=t), ModelParams(params.config, flat)


def _eval_pass(params: ModelParams, epochs: list[Epoch]) -> tuple[float, float]:
    """Mean cross-entropy and accuracy in eval mode, classes as ``metrics.evaluate`` picks."""
    logits = predict(params, epochs)
    labels = np.array([ep.label for ep in epochs])
    losses, _ = cross_entropy(logits, labels)
    correct = np.count_nonzero(logits.argmax(axis=1) == labels)
    return float(np.mean(losses)), correct / len(epochs)


def train(
    data: DatasetSplit,
    config: TrainConfig,
    model_config: ModelConfig = ModelConfig(),
    on_epoch: Callable[[int, dict], None] | None = None,
) -> TrainHistory:
    """Mini-batch Adam training with validation-accuracy checkpoint selection.

    Deterministic given (data, config, model_config): all shuffling, dropout
    and initialization derive from config.seed. ``on_epoch(index, row)``, if
    given, is called as each epoch ends with the row ``history.epochs`` keeps.
    """
    if not data.train or not data.validation:
        raise ValueError("train and validation partitions must be non-empty")
    params = init_params(config.seed, model_config)
    state = init_adam(params)
    rng = np.random.default_rng([config.seed, 1])  # dropout + shuffle stream

    history: list[dict] = []
    best = None  # (val_acc, -val_loss, -epoch, params)
    n = len(data.train)
    # every loss, gradient and validation loss is checked below, so numpy's
    # overflow warnings would only come before the error that names the epoch
    with np.errstate(all="ignore"):
        for epoch_idx in range(config.epochs):
            perm = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, config.batch_size):
                batch = [data.train[i] for i in perm[start : start + config.batch_size]]
                grad_sum = None
                for item in batch:
                    cache = forward(params, item.data, mode="train", rng=rng)
                    loss, grad_logits = cross_entropy(cache.logits, item.label)
                    if not np.isfinite(loss):
                        raise TrainingDivergedError(f"non-finite loss at epoch {epoch_idx}, "
                                                    f"batch {start // config.batch_size}")
                    epoch_losses.append(loss)
                    g = backward(cache, params, grad_logits).flat
                    del cache  # frees the unrolled input before the next forward
                    grad_sum = g if grad_sum is None else grad_sum + g
                grads = ModelParams(params.config, grad_sum / len(batch))
                state, params = adam_step(state, params, grads, config)
            val_loss, val_acc = _eval_pass(params, data.validation)
            if not np.isfinite(val_loss):
                raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch_idx}")
            row = {
                "train_loss": float(np.mean(epoch_losses)),
                "val_loss": val_loss,
                "val_accuracy": val_acc,
            }
            history.append(row)
            if on_epoch is not None:
                on_epoch(epoch_idx, row)
            key = (val_acc, -val_loss, -epoch_idx)
            if best is None or key > best[0]:
                best = (key, epoch_idx, params)
    return TrainHistory(epochs=history, best_epoch=best[1], best_checkpoint=best[2])
