"""Cross-entropy loss, Adam and the training loop."""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass
from multiprocessing.sharedctypes import RawArray
from pathlib import Path
from typing import Callable

import numpy as np

from .data import ConfigError, DatasetSplit, TrainingDivergedError, check_seed
from .model import ModelConfig, ModelParams, backward, forward, init_params, predict
from .preprocess import ForkPool, can_fork, one_blas_thread, usable_cpus

# Adam's decay rates and epsilon, Kingma & Ba's defaults (arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# ``training_work``'s per-example term: the Python calls around one example's
# forward and backward cost about as much as this many samples x parameters
# of its GEMMs
EXAMPLE_WORK = 10**6
# ``train`` hands examples to workers from this much ``training_work`` per
# example up; below it a round trip to a worker costs more than the example
# (the break-even measurements are in CHANGES.md)
TRAIN_POOL_MIN_WORK = 2 * 10**6


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


def training_work(epochs: int, examples: int, samples: int, parameters: int) -> int:
    """The cost of training a ``parameters``-parameter model for ``epochs``
    epochs on ``examples`` examples of ``samples`` samples, in the unit both
    pools' break-evens are set in: per example and epoch, samples x
    parameters for its GEMMs plus EXAMPLE_WORK for the Python calls around
    them."""
    return epochs * examples * (samples * parameters + EXAMPLE_WORK)


def _shared_zeros(shape: tuple[int, ...], shared: bool) -> np.ndarray:
    """Float64 zeros, if ``shared`` in memory that processes forked later share."""
    if not shared:
        return np.zeros(shape)
    return np.frombuffer(RawArray(ctypes.c_double, math.prod(shape))).reshape(shape)


def _dropout_draw(draws: np.ndarray, slot: int, shape: tuple[int, int]) -> np.ndarray:
    """The [out, T] dropout draw of the example in round slot ``slot``: the
    first out * T values of the slot's row, so epochs of any length fit."""
    return draws[slot, : shape[0] * shape[1]].reshape(shape)


def _example_gradient(data: DatasetSplit, params: ModelParams, draws: np.ndarray,
                      grads: np.ndarray, item: tuple[int, int, str]) -> float:
    """The loss of the training example (slot, index, where) names, from a
    train-mode forward with the dropout draw of round slot ``slot``; its
    gradient goes to ``grads[slot]``. A non-finite loss raises
    TrainingDivergedError at ``where`` ("epoch e, batch b")."""
    slot, index, where = item
    x, label = data.train[index].data, data.train[index].label
    draw = _dropout_draw(draws, slot, (params.config.out_channels, x.shape[-1]))
    cache = forward(params, x, mode="train", dropout=draw)
    loss, grad_logits = cross_entropy(cache.logits, label)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss at {where}")
    grads[slot] = backward(cache, params, grad_logits).flat
    return loss


def _validation_logits(data: DatasetSplit, params: ModelParams, draws: np.ndarray,
                       grads: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Eval-mode logits of the validation epochs in ``block``."""
    return predict(params, [data.validation[i] for i in block])


def _eval_pass(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and accuracy of eval-mode logits, classes as
    ``metrics.evaluate`` picks."""
    losses, _ = cross_entropy(logits, labels)
    correct = np.count_nonzero(logits.argmax(axis=1) == labels)
    return float(np.mean(losses)), correct / len(labels)


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

    The whole call runs on one BLAS thread (``one_blas_thread``), and each
    mini-batch runs in rounds of one example per process. The processes are
    this one alone, unless two or more CPUs are usable, one example holds
    TRAIN_POOL_MIN_WORK (``training_work``), the BLAS thread count can be set
    and this is no pool worker: then a ``ForkPool`` of one worker per further
    CPU, up to the batch size, serves the whole call. This process draws each
    example's dropout into shared memory in the one-process loop's stream
    order and computes each round's first example; each gradient lands in
    shared memory, and this process sums them in batch order before each
    Adam step. The validation pass runs in contiguous blocks on the same
    processes. The bytes are those of one process; a worker that dies raises
    BrokenProcessPool.
    """
    if not data.train or not data.validation:
        raise ValueError("train and validation partitions must be non-empty")
    params = init_params(config.seed, model_config)
    state = init_adam(params)
    rng = np.random.default_rng([config.seed, 1])  # dropout + shuffle stream

    history: list[dict] = []
    best = None  # (val_acc, -val_loss, -epoch, params)
    n, out = len(data.train), model_config.out_channels
    longest = max(ep.data.shape[-1] for ep in data.train)
    labels = np.array([ep.label for ep in data.validation])
    # every loss, gradient and validation loss is checked below, so numpy's
    # overflow warnings would only come before the error that names the epoch;
    # forked workers inherit both scopes
    with one_blas_thread() as caller, np.errstate(all="ignore"):
        pooled = (caller is not None and can_fork() and usable_cpus() >= 2
                  and training_work(1, 1, longest, model_config.size) >= TRAIN_POOL_MIN_WORK)
        procs = min(usable_cpus(), config.batch_size, n) if pooled else 1
        live = ModelParams(model_config, _shared_zeros((model_config.size,), procs > 1))
        draws = _shared_zeros((procs, out * longest), procs > 1)
        grads = _shared_zeros((procs, model_config.size), procs > 1)
        blocks = np.array_split(np.arange(len(labels)), min(procs, len(labels)))
        with ForkPool(procs - 1, (data, live, draws, grads)) as pool:
            for epoch_idx in range(config.epochs):
                perm = rng.permutation(n).tolist()
                epoch_losses = []
                for start in range(0, n, config.batch_size):
                    live.flat[...] = params.flat
                    batch = perm[start : start + config.batch_size]
                    where = f"epoch {epoch_idx}, batch {start // config.batch_size}"
                    grad_sum = None
                    for first in range(0, len(batch), procs):
                        shares = [(slot, i, where)
                                  for slot, i in enumerate(batch[first : first + procs])]
                        for slot, i, _ in shares:
                            shape = (out, data.train[i].data.shape[-1])
                            rng.random(out=_dropout_draw(draws, slot, shape))
                        epoch_losses += pool.map(_example_gradient, shares,
                                                 lambda share: f"{share[2]} was trained",
                                                 here=True)
                        for slot in range(len(shares)):
                            g = grads[slot]
                            grad_sum = g.copy() if grad_sum is None else grad_sum + g
                    mean = ModelParams(params.config, grad_sum / len(batch))
                    state, params = adam_step(state, params, mean, config)
                live.flat[...] = params.flat
                logits = np.concatenate(pool.map(
                    _validation_logits, blocks,
                    lambda block: f"the validation pass of epoch {epoch_idx} was done", here=True))
                val_loss, val_acc = _eval_pass(logits, labels)
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
