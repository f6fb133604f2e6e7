"""Single-conv-layer classifier: Conv1D (same padding) -> ReLU -> dropout ->
global average pool -> fully connected -> softmax, with analytic gradients.

All math is float64. The backward pass is hand-derived; there is no autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DROPOUT_RATE = 0.1


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 59
    out_channels: int = 59
    kernel: int = 11
    classes: int = 2

    def __post_init__(self):
        if self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd for symmetric same padding, got {self.kernel}")
        if min(self.in_channels, self.out_channels, self.kernel, self.classes) < 1:
            raise ValueError(f"all model dimensions must be positive: {self}")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of each ModelParams block, in field order."""
        return {
            "conv_weight": (self.out_channels, self.in_channels, self.kernel),
            "conv_bias": (self.out_channels,),
            "fc_weight": (self.classes, self.out_channels),
            "fc_bias": (self.classes,),
        }


@dataclass(frozen=True)
class ModelParams:
    """One value per parameter block: the weights, or their gradients, or an
    Adam moment of them. Each block has its ``ModelConfig.param_shapes()``
    shape for the config that conv_weight and fc_weight give."""

    conv_weight: np.ndarray
    conv_bias: np.ndarray
    fc_weight: np.ndarray
    fc_bias: np.ndarray

    def __post_init__(self):
        try:
            config = self.config
        except (ValueError, IndexError) as exc:  # wrong ndim, even kernel or a zero size
            raise ValueError(
                f"conv_weight {self.conv_weight.shape} and fc_weight {self.fc_weight.shape} "
                f"give no model config ({exc})"
            ) from None
        for name, shape in config.param_shapes().items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape} for {config}")

    @property
    def config(self) -> ModelConfig:
        out_c, in_c, kernel = self.conv_weight.shape
        return ModelConfig(in_c, out_c, kernel, self.fc_weight.shape[0])

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ForwardCache:
    """What ``backward`` needs from one ``forward``.

    ``unrolled`` is the [in*K, T] im2col matrix of the padded input that the
    conv GEMM multiplied; ``backward`` reuses it for the weight gradient
    instead of unrolling the input again. It is the cache's largest array
    (8 bytes * in * K * T), so callers drop the cache once they are done
    with it, before the next ``forward``.
    """

    unrolled: np.ndarray  # [in * K, T]
    conv_pre_act: np.ndarray
    relu_mask: np.ndarray
    dropout_mask: np.ndarray  # inverted-dropout scaling baked in; all-ones in eval
    pooled: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    mode: str


def init_params(seed: int, config: ModelConfig = ModelConfig()) -> ModelParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases."""
    rng = np.random.default_rng(seed)
    shapes = config.param_shapes()
    s_conv = 1.0 / np.sqrt(config.in_channels * config.kernel)
    s_fc = 1.0 / np.sqrt(config.out_channels)
    return ModelParams(
        conv_weight=rng.uniform(-s_conv, s_conv, size=shapes["conv_weight"]),
        conv_bias=np.zeros(shapes["conv_bias"]),
        fc_weight=rng.uniform(-s_fc, s_fc, size=shapes["fc_weight"]),
        fc_bias=np.zeros(shapes["fc_bias"]),
    )


def param_count(params: ModelParams) -> dict[str, int]:
    return {
        "conv": params.conv_weight.size + params.conv_bias.size,
        "fc": params.fc_weight.size + params.fc_bias.size,
    }


def _conv_unrolled(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``conv1d_same`` output and the im2col matrix [in*K, T] it multiplied."""
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


def conv1d_same(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Cross-correlation with stride 1 and symmetric zero padding; output [out, T]."""
    return _conv_unrolled(params, x)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - np.max(logits))
    return z / z.sum()


def forward(
    params: ModelParams,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> ForwardCache:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in model input")
    pre, unrolled = _conv_unrolled(params, x)
    relu_mask = pre > 0
    h = pre * relu_mask
    if mode == "train":
        if rng is None:
            raise ValueError("train-mode forward needs an RNG for dropout")
        keep = rng.random(h.shape) >= DROPOUT_RATE
        dropout_mask = keep / (1.0 - DROPOUT_RATE)
        h = h * dropout_mask
    else:
        # multiplying by ones would change no bit, so it is skipped
        dropout_mask = np.broadcast_to(1.0, h.shape)
    pooled = h.mean(axis=1)
    logits = params.fc_weight @ pooled + params.fc_bias
    return ForwardCache(
        unrolled=unrolled,
        conv_pre_act=pre,
        relu_mask=relu_mask,
        dropout_mask=dropout_mask,
        pooled=pooled,
        logits=logits,
        probs=softmax(logits),
        mode=mode,
    )


def backward(cache: ForwardCache, params: ModelParams, grad_logits: np.ndarray) -> ModelParams:
    """Exact parameter gradients of the logit-weighted loss for one input."""
    out_c, in_c, kernel = params.conv_weight.shape
    if cache.conv_pre_act.shape[0] != out_c or cache.unrolled.shape[0] != in_c * kernel:
        raise ValueError("forward cache does not match these parameters")
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    t = cache.unrolled.shape[1]

    d_fc_weight = np.outer(grad_logits, cache.pooled)
    d_fc_bias = grad_logits.copy()

    d_pooled = params.fc_weight.T @ grad_logits  # [out]
    # pool is a mean, so the upstream gradient spreads uniformly over time
    d_pre = (d_pooled[:, None] / t) * cache.dropout_mask * cache.relu_mask

    d_conv_bias = d_pre.sum(axis=1)
    d_conv_weight = (d_pre @ cache.unrolled.T).reshape(out_c, in_c, kernel)

    return ModelParams(
        conv_weight=d_conv_weight,
        conv_bias=d_conv_bias,
        fc_weight=d_fc_weight,
        fc_bias=d_fc_bias,
    )
