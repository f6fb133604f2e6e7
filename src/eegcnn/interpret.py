"""Frequency-domain probing of a trained model.

Two probes: a single-tone sinusoid sweep that maps the pooling layer's
sensitivity across frequencies, and the expected Welch PSD of the
convolutional layer's outputs under white-noise input, each output channel's
filtering profile, worked out exactly rather than sampled.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import ConfigError, check_seed, write_csv
from .model import MAX_FLOATS, ModelParams
from .preprocess import fork_map, pool_processes, welch_segments

# The tone sweep's arc sums go to worker processes from this many elements
# (frequencies x (interior samples + repeats_sine * out_channels)) up
POOL_MIN_WORK = 200_000


@dataclass(frozen=True)
class ProbeSpec:
    fs: float = 500.0
    epoch_len: int = 2500
    amplitude: float = 1.0
    frequencies: np.ndarray | None = None  # default: 0..fs/2 in 1 Hz steps
    repeats_sine: int = 100
    seed: int = 0
    # Removed settings, accepted and ignored only because bench/run.py's
    # run_probe still passes them (until ROADMAP item 1 drops them there)
    channels: InitVar[int | None] = None
    repeats_noise: InitVar[int | None] = None

    def __post_init__(self, channels, repeats_noise):
        if self.repeats_sine < 1:
            raise ConfigError(f"repeats_sine must be >= 1, got {self.repeats_sine}")
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ConfigError(f"fs must be a finite positive number, got {self.fs}")
        if self.epoch_len < 1:
            raise ConfigError(f"epoch_len must be >= 1, got {self.epoch_len}")
        # the largest array that the spec alone sizes: the tone sweep's [2, 2T + 1]
        # prefix sums (its [n_freqs, repeats_sine * out_channels] arrays depend on
        # the checkpoint too, so pooling_sensitivity checks them)
        if self.epoch_len > MAX_FLOATS // 4:
            raise ConfigError(f"epoch_len {self.epoch_len} is too long: the tone probe's "
                              f"[2, 2 * epoch_len + 1] prefix sums hold more float64 values "
                              f"than one numpy array can ({MAX_FLOATS})")
        check_seed(self.seed)
        if self.frequencies is None:
            return
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        if freqs.size == 0:
            raise ConfigError("no probe frequencies given")
        if not np.all(freqs >= 0):  # also false for NaN
            raise ConfigError(f"probe frequencies must be >= 0, got {np.min(freqs)}")
        if np.max(freqs) > self.fs / 2:
            raise ConfigError(
                f"probe frequency above Nyquist ({self.fs / 2} Hz): {np.max(freqs)}"
            )

    @property
    def freq_grid(self) -> np.ndarray:
        if self.frequencies is not None:
            return np.asarray(self.frequencies, dtype=np.float64)
        return np.arange(0.0, self.fs / 2 + 1e-9, 1.0)


@dataclass(frozen=True)
class SensitivityMap:
    freqs: np.ndarray
    activation: np.ndarray  # [pool_outputs, n_freqs], mean pooled activation

    def to_csv(self, path: str | Path) -> None:
        """Matrix CSV: rows are pool outputs, columns are frequencies."""
        write_csv(path, ["pool_output", *(f"{f:g}" for f in self.freqs)],
                  ([i, *row] for i, row in enumerate(self.activation.tolist())))


@dataclass(frozen=True)
class FilterResponseMap:
    freqs: np.ndarray
    power: np.ndarray  # [out_channels, n_freqs], expected one-sided Welch PSD

    def to_csv_dir(self, out_dir: str | Path) -> list[Path]:
        """One (freq, power) CSV per convolutional output channel."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for ch, row in enumerate(self.power):
            paths.append(out_dir / f"filter_response_ch{ch:02d}.csv")
            write_csv(paths[-1], ["freq", "power"], zip(self.freqs.tolist(), row.tolist()))
        return paths


def relu_arc_sums(p: np.ndarray, q: np.ndarray, b: np.ndarray,
                  angle: np.ndarray) -> np.ndarray:
    """sum_t max(p sin(angle_t) + q cos(angle_t) + b, 0) for each row of the
    equal-length vectors p, q and b.

    A row is M cos(psi_t - theta) + b, with M = hypot(p, q),
    theta = atan2(p, q) and psi_t the angle wrapped to [-pi, pi], so it is
    positive exactly on the arc |psi - theta| < arccos(-b / M). The wrapped
    angles are sorted once and laid twice round the circle, so every arc,
    one that wraps past pi too, is one run of them, and prefix sums of their
    sines and cosines give each row's sum between two ``searchsorted`` ends.
    A row with b <= -M has an empty arc; one with b >= M sums every sample.
    """
    n = angle.size
    trig = np.stack([np.sin(angle), np.cos(angle)])
    psi = np.arctan2(trig[0], trig[1])
    order = psi.argsort(kind="stable")
    psi, trig = psi[order], trig[:, order]
    circle = np.concatenate([psi, psi + 2.0 * np.pi])
    prefix = np.zeros((2, 2 * n + 1))
    np.cumsum(np.concatenate([trig, trig], axis=1), axis=1, out=prefix[:, 1:])
    m, theta = np.hypot(p, q), np.arctan2(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):  # M = 0
        half = np.arccos(np.minimum(np.maximum(-b / m, -1.0), 1.0))
    lo = theta - half
    turn = np.where(lo < -np.pi, 2.0 * np.pi, 0.0)
    start = np.searchsorted(circle, lo + turn)
    stop = np.searchsorted(circle, theta + half + turn)
    full = b >= m  # an arc of the whole circle, whose rounded ends could miss a sample
    start[full], stop[full] = 0, n
    return (p * (prefix[0, stop] - prefix[0, start]) + q * (prefix[1, stop] - prefix[1, start])
            + b * (stop - start))


def pooling_sensitivity(checkpoint: ModelParams, spec: ProbeSpec) -> SensitivityMap:
    """Mean pooling-layer activation per probe frequency, dropout off.

    Each of the ``repeats_sine`` probes of a frequency f feeds input channel n
    the tone A sin(omega u + phi_n), with omega = 2 pi f / fs and
    phi_n ~ U[0, 2 pi), and the pooled ReLU outputs are averaged over the
    repeats. The conv of a tone is a tone, so no forward pass is run. With
    tap offsets d_k = k - pad and, per repeat, the channel sums

        Gc[o, k] = A sum_n cos(phi_n) W[o, n, k],  Gs[o, k] = A sum_n sin(phi_n) W[o, n, k],

    an output sample whose taps all read inside the epoch is
    P sin(omega t) + Q cos(omega t) + b, where

        P = sum_k Gc cos(omega d_k) - Gs sin(omega d_k)
        Q = sum_k Gc sin(omega d_k) + Gs cos(omega d_k),

    and its ReLU sum over the interior samples is one arc of the circle
    (``relu_arc_sums``), so it costs O(log T) per output, not O(T). The first
    and last ``pad`` samples sum only the taps that read inside the epoch, as
    zero padding does, and are rectified one by one. The phases are drawn in
    the order that one draw per repeat would give, so the result equals a
    forward per repeat up to rounding.

    This process draws the phases and runs the GEMMs and the edge sums for
    every frequency, storing P, Q and the edge totals. The arc sums, which
    call no BLAS, then run through ``fork_map`` in contiguous blocks of
    frequencies, one per process that ``pool_processes`` gives; each
    frequency's are the same calls on the same bytes either way.
    """
    rng = np.random.default_rng(spec.seed)
    freqs = spec.freq_grid
    w, b = checkpoint.conv_weight, checkpoint.conv_bias
    out_c, in_c, kernel = w.shape
    repeats = spec.repeats_sine
    # the largest arrays: trig [2R, in] and g [R * out, 2K] per frequency,
    # then P, Q, the edge sums and the arc sums, each [n_freqs, R * out]
    if repeats * max(2 * in_c, out_c * max(2 * kernel, freqs.size)) > MAX_FLOATS:
        raise ConfigError(f"repeats_sine {repeats} is too large for a checkpoint of "
                          f"in_channels {in_c}, out_channels {out_c} and kernel {kernel} with "
                          f"{freqs.size} probe frequencies (fs {spec.fs:g}): the tone probe's "
                          f"arrays would hold more float64 values than one numpy array can "
                          f"({MAX_FLOATS})")
    pad = (kernel - 1) // 2
    d = np.arange(kernel) - pad
    t = np.arange(spec.epoch_len)
    interior = t[pad : spec.epoch_len - pad]
    edge = t[(t < pad) | (t >= spec.epoch_len - pad)]
    taps = edge[:, None] + d  # [E, K] sample each tap of an edge output reads
    # [K, 1 + E]: the tap offsets, then the sample each tap of each edge
    # output reads, and where that sample lies inside the epoch
    reads = np.column_stack([d, taps.T])
    inside = np.column_stack([np.ones(kernel), ((taps >= 0) & (taps < spec.epoch_len)).T])
    basis = np.empty((2 * kernel, 2 + edge.size))
    w_in = w.transpose(1, 0, 2).reshape(in_c, out_c * kernel)
    bias = np.tile(b, repeats)
    omegas = 2.0 * np.pi * freqs / spec.fs
    p, q, total = (np.empty((freqs.size, bias.size)) for _ in range(3))
    for j, omega in enumerate(omegas):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(repeats, in_c))
        trig = spec.amplitude * np.concatenate([np.cos(phases), np.sin(phases)])  # [2R, in]
        # [R * out, 2K]: the row of repeat r and output o holds Gc, then Gs
        g = (trig @ w_in).reshape(2, repeats * out_c, kernel).transpose(1, 0, 2)
        # basis [2K, 2 + E] takes a row's Gc and Gs to P, Q and each edge
        # output's sum over the taps that read inside the epoch (the tone at
        # sample u is A (cos(phi) sin(omega u) + sin(phi) cos(omega u)))
        sin, cos = np.sin(omega * reads) * inside, np.cos(omega * reads) * inside
        basis[:kernel, 0], basis[:kernel, 1:] = cos[:, 0], sin
        basis[kernel:, 0], basis[kernel:, 1:] = -sin[:, 0], cos
        pre = g.reshape(-1, 2 * kernel) @ basis  # [R * out, 2 + E]
        p[j], q[j] = pre[:, 0], pre[:, 1]
        total[j] = np.maximum(pre[:, 2:] + bias[:, None], 0.0).sum(axis=1)
    blocks = np.array_split(np.arange(freqs.size), pool_processes(
        freqs.size, freqs.size * (interior.size + bias.size), POOL_MIN_WORK))
    arcs = fork_map(_arc_sums_block, blocks, (p, q, bias, omegas, interior),
                    lambda block: f"the arc sums from {freqs[block[0]]:g} Hz were done")
    for block, sums in zip(blocks, arcs):
        total[block] += sums
    activation = (total.reshape(freqs.size, repeats, out_c) / spec.epoch_len).mean(axis=1)
    return SensitivityMap(freqs=freqs, activation=activation.T)


def _arc_sums_block(p: np.ndarray, q: np.ndarray, bias: np.ndarray, omegas: np.ndarray,
                    interior: np.ndarray, block: np.ndarray) -> np.ndarray:
    """[block size, R * out]: the interior ReLU sums of the frequencies in ``block``."""
    return np.stack([relu_arc_sums(p[j], q[j], bias, omegas[j] * interior) for j in block])


def conv_filter_response(checkpoint: ModelParams, spec: ProbeSpec) -> FilterResponseMap:
    """Expected ``welch_psd_batch`` of the conv layer's pre-ReLU outputs when
    every input sample is independent unit-variance white noise: each output
    channel's filtering profile, exact rather than sampled.

    A windowed segment's DFT bin f is linear in the input, so its expected
    power is the bias's, b^2 |DFT(win)|^2, plus
    sum_{k, l} G[o, k, l] C[k, l] cos(2 pi f (k - l) / n): G is the Gram
    matrix of filter o's taps over the input channels, and
    C[k, l] = sum_j count[j] win[j - k] win[j - l] / P, where count[j] is how
    many of the P segments read padded sample j inside the epoch (zero
    padding adds nothing). No array of length T is built.
    """
    n, win, hop, segments, freqs, weight = welch_segments(spec.fs, spec.epoch_len)
    w, b = checkpoint.conv_weight, checkpoint.conv_bias
    kernel = w.shape[2]
    d = np.arange(n + kernel - 1) - (kernel - 1) // 2
    # segments p with 0 <= p * hop + d < T: [ceil(-d / hop), ceil((T - d) / hop)) within [0, P)
    count = (np.clip(-((d - spec.epoch_len) // hop), 0, segments)
             - np.clip(-(d // hop), 0, segments))
    # a[k, j] = win[j - k], zero outside the window
    a = sliding_window_view(np.pad(win, kernel - 1), kernel)[:, ::-1].T
    gc = (w.transpose(0, 2, 1) @ w) * ((a * count) @ a.T)  # [out, K, K], symmetric
    # cos(x (k - l)) = cos(x k) cos(x l) + sin(x k) sin(x l), x = 2 pi f / n
    angle = 2.0 * np.pi * np.outer(np.arange(kernel), np.arange(freqs.size)) / n
    cos, sin = np.cos(angle), np.sin(angle)
    noise = ((gc @ cos) * cos + (gc @ sin) * sin).sum(axis=1)
    power = noise / segments + b[:, None] ** 2 * np.abs(np.fft.rfft(win)) ** 2
    return FilterResponseMap(freqs=freqs, power=power * weight)
