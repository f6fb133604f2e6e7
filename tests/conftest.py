from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from eegcnn.data import Epoch, SubjectRecording
from eegcnn.model import DROPOUT_RATE, Gradients, softmax


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_recording(subject_id="S000", label=0, fs=500.0, channels=3, n_samples=30000, seed=0):
    gen = np.random.default_rng(seed)
    return SubjectRecording(
        subject_id=subject_id,
        label=label,
        fs=fs,
        samples=gen.standard_normal((channels, n_samples)),
    )


def make_epoch(channels=2, epoch_len=8, label=0, seed=0, subject_id="S000"):
    gen = np.random.default_rng(seed)
    return Epoch(
        data=gen.standard_normal((channels, epoch_len)),
        label=label,
        subject_id=subject_id,
        epoch_index=0,
    )


# The per-example forward and backward as first written: forward pads with
# np.pad and multiplies by an all-ones dropout mask in eval mode; backward
# unrolls the cached input again. The model must give the same bits.


def reference_unroll(x, kernel):
    pad = (kernel - 1) // 2
    windows = sliding_window_view(np.pad(x, ((0, 0), (pad, pad))), kernel, axis=1)
    return windows.transpose(0, 2, 1).reshape(x.shape[0] * kernel, x.shape[1])


def reference_forward(params, x, mode="eval", rng=None, dropout_rate=DROPOUT_RATE):
    x = np.asarray(x, dtype=np.float64)
    out_c, in_c, kernel = params.conv_weight.shape
    xm = reference_unroll(x, kernel)
    pre = params.conv_weight.reshape(out_c, in_c * kernel) @ xm + params.conv_bias[:, None]
    relu_mask = pre > 0
    h = pre * relu_mask
    if mode == "train" and dropout_rate > 0:
        dropout_mask = (rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
    else:
        dropout_mask = np.ones_like(h)
    h = h * dropout_mask
    pooled = h.mean(axis=1)
    logits = params.fc_weight @ pooled + params.fc_bias
    return SimpleNamespace(
        input=x, conv_pre_act=pre, relu_mask=relu_mask, dropout_mask=dropout_mask,
        pooled=pooled, logits=logits, probs=softmax(logits), mode=mode,
    )


def reference_backward(cache, params, grad_logits):
    out_c, in_c, kernel = params.conv_weight.shape
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    t = cache.input.shape[1]
    d_pooled = params.fc_weight.T @ grad_logits
    d_pre = (d_pooled[:, None] / t) * cache.dropout_mask * cache.relu_mask
    xm = reference_unroll(cache.input, kernel)
    return Gradients(
        conv_weight=(d_pre @ xm.T).reshape(out_c, in_c, kernel),
        conv_bias=d_pre.sum(axis=1),
        fc_weight=np.outer(grad_logits, cache.pooled),
        fc_bias=grad_logits.copy(),
    )
