import copy
import csv
import functools
import multiprocessing
import operator
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps

import eegcnn.preprocess
from eegcnn.data import (PARTITIONS, Epoch, SubjectRecording, TrainingDivergedError,
                         load_subject_csv)
from eegcnn.model import (DROPOUT_RATE, ModelConfig, ModelParams, _conv_unrolled, backward,
                          forward, init_params, predict)
from eegcnn.preprocess import apply_zero_phase, blas_threads, design_highpass, welch_psd_batch
from eegcnn.train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, adam_step, cross_entropy,
                          init_adam)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs ``preprocess.pool_processes``, and so every pool of
    the package, sees; returns the worker count of each ``preprocess.ForkPool``
    that forks workers, a list that later calls extend."""
    pools = []
    start = eegcnn.preprocess.ForkPool.__init__

    def counted(self, workers, *args):
        if workers:
            pools.append(workers)
        start(self, workers, *args)

    def see(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return pools

    monkeypatch.setattr(eegcnn.preprocess.ForkPool, "__init__", counted)
    return see


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes are forked")
needs_openblas = pytest.mark.skipif(blas_threads() is None,
                                    reason="no OpenBLAS whose thread count can be set")


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


def layer_param_counts(params):
    """Parameters per layer, weights plus biases: {"conv": ..., "fc": ...}."""
    sizes = {name: block.size for name, block in params.arrays().items()}
    return {layer: sizes[f"{layer}_weight"] + sizes[f"{layer}_bias"] for layer in ("conv", "fc")}


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
    process. preprocess.prepare_split spreads the same work over worker
    processes and must write the same arrays in the same order."""
    sos = design_highpass(cutoff_hz, order, manifest.fs)
    subjects = []
    for entry in manifest.entries:
        rec = load_subject_csv(entry.file, entry, manifest)
        subjects.append(replace(rec, samples=apply_zero_phase(sos, rec.samples)))
    return subjects


def reference_save_split(out_dir, split):
    """Each partition's ``<partition>_data.npy`` as ``np.save`` of
    ``np.stack`` of its epochs. data.save_split writes the same bytes one
    epoch at a time, with no stack in memory."""
    for name in PARTITIONS:
        np.save(out_dir / f"{name}_data.npy", np.stack([ep.data for ep in split.partition(name)]))


def reference_write_csv(path, header, rows):
    """Every row through ``csv.writer``, numpy scalars as Python ones first:
    data.write_csv joins a row of only ints and floats itself, and must write
    the same bytes."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([x.item() if isinstance(x, np.generic) else x for x in row]
                         for row in rows)


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


def reference_forward(params, x, mode="eval", dropout=None, dropout_rate=DROPOUT_RATE):
    x = np.asarray(x, dtype=np.float64)
    out_c, in_c, kernel = params.conv_weight.shape
    xm = reference_unroll(x, kernel)
    pre = params.conv_weight.reshape(out_c, in_c * kernel) @ xm + params.conv_bias[:, None]
    relu_mask = pre > 0
    h = pre * relu_mask
    if mode == "train" and dropout_rate > 0:
        dropout_mask = (dropout >= dropout_rate) / (1.0 - dropout_rate)
    else:
        dropout_mask = np.ones_like(h)
    h = h * dropout_mask
    pooled = h.mean(axis=1)
    logits = params.fc_weight @ pooled + params.fc_bias
    return SimpleNamespace(
        input=x, conv_pre_act=pre, relu_mask=relu_mask, dropout_mask=dropout_mask,
        pooled=pooled, logits=logits, mode=mode,
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


def reference_train(data, config, model_config):
    """The training loop as written for one process: (history rows,
    best_epoch, best checkpoint) from shuffling each epoch with the
    [seed, 1] stream, drawing each example's dropout uniform from its own
    [seed, 2, epoch, index] stream as its forward runs, and summing the
    batch's gradients left to right. train() must give the same bits
    however many processes share its mini-batches."""
    params = init_params(config.seed, model_config)
    state = init_adam(params)
    rng = np.random.default_rng([config.seed, 1])
    labels = np.array([ep.label for ep in data.validation])
    history, best, n = [], None, len(data.train)
    with np.errstate(all="ignore"):
        for epoch_idx in range(config.epochs):
            perm = rng.permutation(n)
            losses = []
            for start in range(0, n, config.batch_size):
                batch = perm[start : start + config.batch_size]
                grad_sum = None
                for i in batch:
                    item = data.train[i]
                    draw = np.random.default_rng([config.seed, 2, epoch_idx, i]).random(
                        (model_config.out_channels, item.data.shape[-1]))
                    cache = forward(params, item.data, mode="train", dropout=draw)
                    loss, grad_logits = cross_entropy(cache.logits, item.label)
                    if not np.isfinite(loss):
                        raise TrainingDivergedError(f"non-finite loss at epoch {epoch_idx}, "
                                                    f"batch {start // config.batch_size}")
                    losses.append(loss)
                    g = backward(cache, params, grad_logits).flat
                    grad_sum = g if grad_sum is None else grad_sum + g
                grads = ModelParams(params.config, grad_sum / len(batch))
                state, params = adam_step(state, params, grads, config)
            logits, _ = predict(params, data.validation)
            val_loss = float(np.mean(cross_entropy(logits, labels)[0]))
            val_acc = np.count_nonzero(logits.argmax(axis=1) == labels) / len(labels)
            history.append({"train_loss": float(np.mean(losses)), "val_loss": val_loss,
                            "val_accuracy": val_acc})
            key = (val_acc, -val_loss, -epoch_idx)
            if best is None or key > best[0]:
                best = (key, epoch_idx, params)
    return history, best[1], best[2]


def softmax(logits):
    """Class probabilities along the last axis. The model scores the logits
    and never takes their softmax; the tests check the loss gradient and the
    eval-mode outputs against it."""
    z = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def reference_cross_entropy(logits, label):
    """Cross-entropy of one example as first written, on a 1-D logit vector:
    (loss, gradient). train.cross_entropy must give the same bits for each
    row of a batch."""
    shifted = logits - np.max(logits)
    z = np.exp(shifted)
    total = z.sum()
    grad_logits = z / total
    grad_logits[label] -= 1.0
    return float(np.log(total) - shifted[label]), grad_logits


def reference_scalar_metrics(cm):
    """precision/recall/f1/accuracy as first written, each 0/0 defined as 0
    through one closure that also raises the flag. metrics.scalar_metrics
    must give the same bits and the same flag."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    degenerate = False

    def ratio(num, den):
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    precision = ratio(cm.tp, cm.tp + cm.fp)
    recall = ratio(cm.tp, cm.tp + cm.fn)
    f1 = ratio(2 * precision * recall, precision + recall)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": (cm.tp + cm.tn) / cm.total,
        "degenerate": degenerate,
    }


# The sinusoid sweep as first written: one probe signal and one forward per
# frequency per repeat. interpret.pooling_sensitivity works the same sweep out
# in closed form and must agree with this up to rounding.


def gen_sinusoid_probe(f, spec, rng, channels):
    """Unit-tone probe: channel n gets A*sin(2*pi*f*t + phi_n), phi_n ~ U[0, 2pi)."""
    if not 0 <= f <= spec.fs / 2:
        raise ValueError(f"probe frequency {f} outside [0, Nyquist={spec.fs / 2}]")
    t = np.arange(spec.epoch_len) / spec.fs
    phases = rng.uniform(0.0, 2.0 * np.pi, size=channels)
    return spec.amplitude * np.sin(2.0 * np.pi * f * t[None, :] + phases[:, None])


def reference_pooling_sensitivity(params, spec):
    """[out, n_freqs] mean pooled activation, one forward per probe."""
    rng = np.random.default_rng(spec.seed)
    freqs = spec.freq_grid
    out_c, in_c, _ = params.conv_weight.shape
    activation = np.zeros((out_c, freqs.size))
    for j, f in enumerate(freqs):
        acc = np.zeros(out_c)
        for _ in range(spec.repeats_sine):
            probe = gen_sinusoid_probe(float(f), spec, rng, in_c)
            acc += reference_forward(params, probe, mode="eval").pooled
        activation[:, j] = acc / spec.repeats_sine
    return activation


def conv1d_same(params, x):
    """The conv layer's forward alone: cross-correlation with stride 1 and
    symmetric zero padding, output [out, T]."""
    return _conv_unrolled(params, x)[0]


# The noise probe two more ways. interpret.conv_filter_response gives the
# expected Welch PSD of the conv output under unit white noise in closed form.
# Welch's periodogram is quadratic in its input and the noise samples are
# uncorrelated with unit variance, so that expectation is the PSD of the
# zero-input (bias) output plus, with the bias at zero, the PSD of the output
# of each single unit impulse: in_channels * epoch_len forwards. The loop
# that the closed form replaced draws the noise and averages its PSD instead.


def reference_filter_response(params, spec):
    """(freqs, [out, n_freqs]) expected Welch PSD, as a sum over unit impulses."""
    in_c, t = params.conv_weight.shape[1], spec.epoch_len
    freqs, power = welch_psd_batch(conv1d_same(params, np.zeros((in_c, t))), spec.fs)
    no_bias = ModelParams(params.config, params.flat.copy())
    no_bias.conv_bias[...] = 0.0
    # every impulse at once: [in * T, in, T], impulse (i, u) at channel i, sample u
    impulses = np.eye(in_c * t).reshape(in_c * t, in_c, t)
    outputs = np.stack([conv1d_same(no_bias, x) for x in impulses])
    return freqs, power + welch_psd_batch(outputs, spec.fs)[1].sum(axis=0)


def sampled_filter_response(params, spec, repeats, seed):
    """(mean, standard error) over ``repeats`` white-noise draws of the conv
    output's Welch PSD, each [out, n_freqs]: the Monte-Carlo estimate."""
    rng = np.random.default_rng(seed)
    in_c = params.conv_weight.shape[1]
    draws = np.stack([
        welch_psd_batch(conv1d_same(params, rng.standard_normal((in_c, spec.epoch_len))),
                        spec.fs)[1]
        for _ in range(repeats)
    ])
    return draws.mean(axis=0), draws.std(axis=0, ddof=1) / np.sqrt(repeats)


def fir_power_response(kernel, freqs, fs):
    """Analytic |DFT(kernel)|^2 at the given frequencies: the noise probe's
    expected power response of one FIR filter, up to the one-sided 2/fs."""
    kernel = np.asarray(kernel, dtype=np.float64)
    k = np.arange(kernel.size)
    phase = -2.0j * np.pi * np.asarray(freqs)[:, None] * k[None, :] / fs
    h = (kernel[None, :] * np.exp(phase)).sum(axis=1)
    return np.abs(h) ** 2


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
    _, grad_logits = cross_entropy(cache.logits, epoch.label)
    analytic = backward(cache, params, grad_logits).flat

    def probe(flat: np.ndarray) -> tuple[float, np.ndarray]:
        c = forward(ModelParams(params.config, flat), epoch.data, mode="eval")
        return cross_entropy(c.logits, epoch.label)[0], c.grad_mask  # eval: the ReLU mask

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
