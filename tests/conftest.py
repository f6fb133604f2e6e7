import copy
import functools
import operator
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps

from eegcnn.data import Epoch, SubjectRecording, load_subject_csv
from eegcnn.model import DROPOUT_RATE, ModelConfig, ModelParams, backward, forward, softmax
from eegcnn.preprocess import apply_zero_phase, design_highpass
from eegcnn.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, cross_entropy


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


# A JSON document holding an integer longer than Python converts (4300 digits)
OVER_LONG_INT = pytest.param('{"seed": ' + "1" * 5000 + "}", id="5000-digit-int")
# A JSON text nested deeper than Python's parser recurses
DEEP_NESTING = pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting")

# Strategies of the reader fuzz tests.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _json_paths(obj, path=()):
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _json_paths(value, path + (key,))


@st.composite
def edited_json(draw, doc):
    """A copy of ``doc`` with one value, at any depth, removed or replaced by
    any JSON value."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_json_paths(doc))))
    if not path:
        return draw(JSON_VALUES)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


@st.composite
def mutated_bytes(draw, blob):
    """``blob`` with one to four bytes replaced, deleted or inserted, or cut short."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        if not out:
            break
        i = draw(st.integers(0, len(out) - 1))
        op = draw(st.sampled_from(["replace", "delete", "insert", "cut"]))
        if op == "replace":
            out[i] = draw(st.integers(0, 255))
        elif op == "delete":
            del out[i]
        elif op == "insert":
            out[i:i] = draw(st.binary(min_size=1, max_size=4))
        else:
            del out[i:]
    return bytes(out)


def make_params(conv_weight, conv_bias, fc_weight, fc_bias):
    """ModelParams from its four blocks; conv_weight [out, in, kernel] gives
    the config, and each block must have that config's shape."""
    out_c, in_c, kernel = np.shape(conv_weight)
    config = ModelConfig(in_c, out_c, kernel)
    blocks = [conv_weight, conv_bias, fc_weight, fc_bias]
    assert [np.shape(b) for b in blocks] == list(config.param_shapes().values())
    return ModelParams(config, np.concatenate([np.ravel(b) for b in blocks]).astype(np.float64))


def make_epoch(channels=2, epoch_len=8, label=0, seed=0, subject_id="S000"):
    gen = np.random.default_rng(seed)
    return Epoch(
        data=gen.standard_normal((channels, epoch_len)),
        label=label,
        subject_id=subject_id,
        epoch_index=0,
    )


def reference_load_filtered(manifest, cutoff_hz, order):
    """The serial load -> filter loop, one subject after another in this
    process. preprocess.load_filtered spreads the same work over worker
    processes and must return the same arrays in the same order."""
    sos = design_highpass(cutoff_hz, order, manifest.fs)
    subjects = []
    for entry in manifest.entries:
        rec = load_subject_csv(entry.file, entry, manifest)
        subjects.append(replace(rec, samples=apply_zero_phase(sos, rec.samples)))
    return subjects


def gain_db(sos, freq_hz, fs, zero_phase=False):
    """Magnitude response in dB at one frequency; doubled for forward-backward use."""
    _, h = sps.sosfreqz(sos, worN=[freq_hz], fs=fs)
    mag = abs(h[0])
    db = 20.0 * np.log10(mag) if mag > 0 else -np.inf
    return 2.0 * db if zero_phase else db


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
    return make_params(
        conv_weight=(d_pre @ xm.T).reshape(out_c, in_c, kernel),
        conv_bias=d_pre.sum(axis=1),
        fc_weight=np.outer(grad_logits, cache.pooled),
        fc_bias=grad_logits,
    )


def reference_adam_step(m, v, t, params, grads, learning_rate):
    """Adam as first written, block by block over dicts of blocks (name ->
    array): the new m, v and params dicts. train.adam_step makes the same
    update on the flat vector and must give the same bits."""
    t = t + 1
    new_m, new_v, new_p = {}, {}, {}
    for name, g in grads.items():
        new_m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
        new_v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = new_m[name] / (1 - ADAM_BETA1**t)
        v_hat = new_v[name] / (1 - ADAM_BETA2**t)
        new_p[name] = params[name] - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_m, new_v, new_p


# The sinusoid sweep as first written: one probe signal and one forward per
# frequency per repeat. interpret.pooling_sensitivity works the same sweep out
# in closed form and must agree with this up to rounding.


def gen_sinusoid_probe(f, spec, rng):
    """Unit-tone probe: channel n gets A*sin(2*pi*f*t + phi_n), phi_n ~ U[0, 2pi)."""
    if not 0 <= f <= spec.fs / 2:
        raise ValueError(f"probe frequency {f} outside [0, Nyquist={spec.fs / 2}]")
    t = np.arange(spec.epoch_len) / spec.fs
    phases = rng.uniform(0.0, 2.0 * np.pi, size=spec.channels)
    return spec.amplitude * np.sin(2.0 * np.pi * f * t[None, :] + phases[:, None])


def reference_pooling_sensitivity(params, spec):
    """[out, n_freqs] mean pooled activation, one forward per probe."""
    rng = np.random.default_rng(spec.seed)
    freqs = spec.freq_grid
    out_c = params.conv_weight.shape[0]
    activation = np.zeros((out_c, freqs.size))
    for j, f in enumerate(freqs):
        acc = np.zeros(out_c)
        for _ in range(spec.repeats_sine):
            probe = gen_sinusoid_probe(float(f), spec, rng)
            acc += reference_forward(params, probe, mode="eval").pooled
        activation[:, j] = acc / spec.repeats_sine
    return activation


def finite_diff_check(params: ModelParams, epoch: Epoch, eps: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Dropout is disabled (eval-mode gradients) so the loss is deterministic.
    Intended for small models only. The independent gradient oracle of the
    model tests and the acceptance suite.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    total = params.config.size
    if total > 10_000:
        raise ValueError(f"model too large for finite differences ({total} parameters)")

    cache = forward(params, epoch.data, mode="eval")
    _, grad_logits = cross_entropy(cache.probs, epoch.label)
    analytic = backward(cache, params, grad_logits).flat

    def probe(flat: np.ndarray) -> tuple[float, np.ndarray]:
        c = forward(ModelParams(params.config, flat), epoch.data, mode="eval")
        return cross_entropy(c.probs, epoch.label)[0], c.grad_mask  # eval: the ReLU mask

    worst = 0.0
    flat = params.flat.copy()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp, mask_p = probe(flat)
        flat[i] = orig - eps
        lm, mask_m = probe(flat)
        flat[i] = orig
        if not np.array_equal(mask_p, mask_m):
            # perturbation crosses a ReLU kink; the loss is not
            # differentiable there, so central differences are meaningless
            continue
        numeric = (lp - lm) / (2 * eps)
        a = analytic[i]
        scale = max(abs(a), abs(numeric))
        err = abs(a - numeric) if scale < 1e-10 else abs(a - numeric) / scale
        worst = max(worst, err)
    return worst
