"""Single-conv-layer classifier: Conv1D (same padding) -> ReLU -> dropout ->
global average pool -> fully connected, with analytic gradients. The softmax
lives inside the loss (``train.cross_entropy``); scoring reads the logits.

All math is float64. The backward pass is hand-derived; there is no autodiff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import ConfigError, Epoch

DROPOUT_RATE = 0.1
# The labels are binary, PD vs Control (data.LABEL_CODES), so the fc layer has
# two outputs.
CLASSES = 2
# The most float64 values that one numpy array can hold: its byte count must
# fit np.intp.
MAX_FLOATS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 59
    out_channels: int = 59
    kernel: int = 11

    def __post_init__(self):
        if self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd for symmetric same padding, got {self.kernel}")
        if min(self.in_channels, self.out_channels, self.kernel) < 1:
            raise ConfigError(f"all model dimensions must be positive: {self}")
        if self.size > MAX_FLOATS:
            raise ConfigError(f"in_channels {self.in_channels}, out_channels {self.out_channels} "
                              f"and kernel {self.kernel} give {self.size} parameters, more "
                              f"float64 values than one numpy array can hold ({MAX_FLOATS})")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of each ModelParams block, in ``ModelParams.flat`` order."""
        return {
            "conv_weight": (self.out_channels, self.in_channels, self.kernel),
            "conv_bias": (self.out_channels,),
            "fc_weight": (CLASSES, self.out_channels),
            "fc_bias": (CLASSES,),
        }

    @property
    def size(self) -> int:
        """Number of parameters: the length of ``ModelParams.flat``."""
        return sum(map(math.prod, self.param_shapes().values()))


@dataclass(frozen=True)
class ModelParams:
    """One value per parameter: the weights, or their gradients, or an Adam
    moment of them. ``flat`` holds them all as one float64 vector, the blocks
    of ``config.param_shapes()`` one after another in C order, which is the
    checkpoint payload's layout. The four block attributes are views of it."""

    config: ModelConfig
    flat: np.ndarray
    conv_weight: np.ndarray = field(init=False, repr=False)
    conv_bias: np.ndarray = field(init=False, repr=False)
    fc_weight: np.ndarray = field(init=False, repr=False)
    fc_bias: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, flat = self.config.size, self.flat
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.shape == (n,)):
            raise ValueError(f"{self.config} needs a 1-D float64 flat of {n} values, got "
                             f"shape {np.shape(flat)} {getattr(flat, 'dtype', type(flat))}")
        shapes = self.config.param_shapes()
        blocks = np.split(flat, np.cumsum([math.prod(s) for s in shapes.values()])[:-1])
        for (name, shape), block in zip(shapes.items(), blocks):
            object.__setattr__(self, name, block.reshape(shape))

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.config.param_shapes()}


@dataclass(frozen=True)
class ForwardCache:
    """What ``backward`` needs from one ``forward``.

    ``unrolled`` is the [in*K, T] im2col matrix of the padded input that the
    conv GEMM multiplied; ``backward`` reuses it for the weight gradient
    instead of unrolling the input again. It is the cache's largest array
    (8 bytes * in * K * T), so callers drop the cache once they are done
    with it, before the next ``forward``.

    ``grad_mask`` [out, T] is the ReLU mask times the inverted-dropout scale,
    or the bare boolean ReLU mask in eval mode. The ReLU factor is exactly 0 or
    1, so the product gives the bits, signed zeros included, of both in turn.
    """

    unrolled: np.ndarray  # [in * K, T]
    grad_mask: np.ndarray  # [out, T]
    pooled: np.ndarray
    logits: np.ndarray


def init_params(seed: int, config: ModelConfig = ModelConfig()) -> ModelParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases."""
    rng = np.random.default_rng(seed)
    s_conv = 1.0 / math.sqrt(config.in_channels * config.kernel)  # any int, not just int64
    s_fc = 1.0 / math.sqrt(config.out_channels)
    params = ModelParams(config, np.zeros(config.size))
    params.conv_weight[...] = rng.uniform(-s_conv, s_conv, size=params.conv_weight.shape)
    params.fc_weight[...] = rng.uniform(-s_fc, s_fc, size=params.fc_weight.shape)
    return params


def _conv_unrolled(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conv layer's output [out, T], a cross-correlation with stride 1 and
    symmetric zero padding, and the im2col matrix [in*K, T] it multiplied."""
    x = np.asarray(x, dtype=np.float64)
    out_c, in_c, kernel = params.conv_weight.shape
    if x.ndim != 2 or x.shape[0] != in_c:
        raise ValueError(f"input must be [in_channels={in_c}, T], got shape {x.shape}")
    t = x.shape[1]
    pad = (kernel - 1) // 2
    # xp stays referenced until the GEMM output is allocated; freeing it first
    # let that output reuse its block, which raised the `probe` workload's
    # peak RSS by about 10 MB (glibc heap layout)
    xp = np.zeros((in_c, t + 2 * pad))
    xp[:, pad : pad + t] = x
    windows = sliding_window_view(xp, kernel, axis=1)  # [in, T, K]
    xm = windows.transpose(0, 2, 1).reshape(in_c * kernel, t)
    # single GEMM: [out, in*K] @ [in*K, T]
    y = params.conv_weight.reshape(out_c, in_c * kernel) @ xm
    return y + params.conv_bias[:, None], xm


def forward(
    params: ModelParams,
    x: np.ndarray,
    mode: str = "eval",
    dropout: np.ndarray | None = None,
) -> ForwardCache:
    """One example's pass. A train-mode pass takes the example's dropout
    draw: uniform values in [0, 1), one per conv output [out, T]. An output
    whose draw is below DROPOUT_RATE is dropped and the others are scaled by
    1 / (1 - DROPOUT_RATE), so the pass is a function of its arguments alone
    and the caller owns the random stream (``train`` draws it in batch
    order)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in model input")
    pre, unrolled = _conv_unrolled(params, x)
    mask = pre > 0
    if mode == "train":
        if dropout is None:
            raise ValueError("train-mode forward needs a dropout draw")
        mask = mask * ((dropout >= DROPOUT_RATE) / (1.0 - DROPOUT_RATE))
    pooled = (pre * mask).mean(axis=1)
    logits = params.fc_weight @ pooled + params.fc_bias
    return ForwardCache(unrolled=unrolled, grad_mask=mask, pooled=pooled, logits=logits)


def predict(params: ModelParams, epochs: list[Epoch]) -> np.ndarray:
    """Eval-mode logits [N, CLASSES], one forward per epoch."""
    logits = [forward(params, ep.data, mode="eval").logits for ep in epochs]
    return np.array(logits).reshape(len(epochs), CLASSES)


def backward(cache: ForwardCache, params: ModelParams, grad_logits: np.ndarray) -> ModelParams:
    """Exact parameter gradients of the logit-weighted loss for one input."""
    out_c, in_c, kernel = params.conv_weight.shape
    if cache.grad_mask.shape[0] != out_c or cache.unrolled.shape[0] != in_c * kernel:
        raise ValueError("forward cache does not match these parameters")
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    t = cache.unrolled.shape[1]

    d_pooled = params.fc_weight.T @ grad_logits  # [out]
    # pool is a mean, so the upstream gradient spreads uniformly over time
    d_pre = (d_pooled[:, None] / t) * cache.grad_mask
    return ModelParams(params.config, np.concatenate([
        (d_pre @ cache.unrolled.T).ravel(), d_pre.sum(axis=1),
        np.outer(grad_logits, cache.pooled).ravel(), grad_logits]))
