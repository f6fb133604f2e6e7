"""Frequency-domain probing of a trained model.

Two probes: a single-tone sinusoid sweep that maps the pooling layer's
sensitivity across frequencies, and white-noise system identification of the
convolutional layer's per-channel filtering profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import check_seed, write_csv
from .model import ModelParams, conv1d_same
from .preprocess import welch_psd_batch


@dataclass(frozen=True)
class ProbeSpec:
    fs: float = 500.0
    epoch_len: int = 2500
    channels: int = 59
    amplitude: float = 1.0
    frequencies: np.ndarray | None = None  # default: 0..fs/2 in 1 Hz steps
    repeats_sine: int = 100
    repeats_noise: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.repeats_sine < 1 or self.repeats_noise < 1:
            raise ValueError("repeat counts must be >= 1")
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be a finite positive number, got {self.fs}")
        if self.epoch_len < 1:
            raise ValueError(f"epoch_len must be >= 1, got {self.epoch_len}")
        check_seed(self.seed)
        if self.frequencies is None:
            return
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        if freqs.size == 0:
            raise ValueError("no probe frequencies given")
        if not np.all(freqs >= 0):  # also false for NaN
            raise ValueError(f"probe frequencies must be >= 0, got {np.min(freqs)}")
        if np.max(freqs) > self.fs / 2:
            raise ValueError(
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
    power: np.ndarray  # [out_channels, n_freqs], repeat-averaged one-sided PSD

    def to_csv_dir(self, out_dir: str | Path) -> list[Path]:
        """One (freq, power) CSV per convolutional output channel."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for ch, row in enumerate(self.power):
            paths.append(out_dir / f"filter_response_ch{ch:02d}.csv")
            write_csv(paths[-1], ["freq", "power"], zip(self.freqs.tolist(), row.tolist()))
        return paths


def gen_white_noise(spec: ProbeSpec, rng: np.random.Generator) -> np.ndarray:
    """Independent standard Gaussian samples per channel and time step."""
    return rng.standard_normal((spec.channels, spec.epoch_len))


# Rows of the [R*out, T] pre-activation block that ReLU and the time mean run
# on at a time, so the block (100 * 59 rows at the CLI defaults) is never
# built whole. At paper shape and R = 100, 32 rows (640 kB at T = 2500) ran
# the sweep about 10 % faster than 64 rows and twice as fast as 128.
_ROWS = 32


def pooling_sensitivity(checkpoint: ModelParams, spec: ProbeSpec) -> SensitivityMap:
    """Mean pooling-layer activation per probe frequency, dropout off.

    Each of the ``repeats_sine`` probes of a frequency f feeds input channel n
    the tone A sin(omega t + phi_n), with omega = 2 pi f / fs and
    phi_n ~ U[0, 2 pi), and the pooled ReLU outputs are averaged over the
    repeats. The conv of a tone is a tone, so no forward pass is run. With
    tap offsets d_k = k - pad, an output sample whose taps all read inside
    the epoch is P sin(omega t) + Q cos(omega t) + b, where

        alpha = sum_k W[:, :, k] cos(omega d_k),  beta = sum_k W[:, :, k] sin(omega d_k)
        P = A (cos(phi) alpha^T - sin(phi) beta^T)
        Q = A (cos(phi) beta^T + sin(phi) alpha^T)

    for the [R, in] phases phi of the repeats. The first and last ``pad``
    samples sum only the taps that read inside the epoch, as zero padding
    does. The phases are drawn in the order that one draw per repeat would
    give, so the result equals a forward per repeat up to rounding.
    """
    rng = np.random.default_rng(spec.seed)
    freqs = spec.freq_grid
    w, b = checkpoint.conv_weight, checkpoint.conv_bias
    out_c, in_c, kernel = w.shape
    pad = (kernel - 1) // 2
    d = np.arange(kernel) - pad
    t = np.arange(spec.epoch_len)
    interior = t[pad : spec.epoch_len - pad]
    edge = t[(t < pad) | (t >= spec.epoch_len - pad)]
    taps = edge[:, None] + d  # [E, K] sample each tap of an edge output reads
    in_epoch = (taps >= 0) & (taps < spec.epoch_len)
    bias = np.tile(b, spec.repeats_sine)
    activation = np.empty((out_c, freqs.size))
    for j, f in enumerate(freqs):
        omega = 2.0 * np.pi * f / spec.fs
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(spec.repeats_sine, in_c))
        trig = spec.amplitude * np.hstack([np.cos(phases), np.sin(phases)])  # [R, 2 in]
        # Tap sums of the kernels: alpha and beta over all taps, then per edge
        # output the sin and cos sums over the taps that read inside the epoch
        # (the tone at sample u is A (cos(phi) sin(omega u) + sin(phi) cos(omega u))).
        tap_basis = np.vstack([np.cos(omega * d), np.sin(omega * d),
                               np.sin(omega * taps) * in_epoch, np.cos(omega * taps) * in_epoch])
        sums = (w.reshape(-1, kernel) @ tap_basis.T).reshape(out_c, in_c, -1)
        alpha, beta = sums[..., 0].T, sums[..., 1].T  # [in, out]
        pq = trig @ np.block([[alpha, beta], [-beta, alpha]])  # [R, 2 out]: P, then Q
        edge_sums = sums[..., 2:].reshape(out_c, in_c, 2, edge.size).transpose(2, 1, 0, 3)
        edge_pre = trig @ edge_sums.reshape(2 * in_c, out_c * edge.size)
        edge_pre = edge_pre.reshape(spec.repeats_sine, out_c, edge.size)
        total = np.maximum(edge_pre + b[:, None], 0.0).sum(axis=2).reshape(-1)  # [R * out]
        coef = np.stack([pq[:, :out_c].reshape(-1), pq[:, out_c:].reshape(-1), bias], axis=1)
        basis = np.stack([np.sin(omega * interior), np.cos(omega * interior),
                          np.ones(interior.size)])  # [3, T - 2 pad]
        for i in range(0, coef.shape[0], _ROWS):
            block = coef[i : i + _ROWS] @ basis
            total[i : i + _ROWS] += np.maximum(block, 0.0, out=block).sum(axis=1)
        activation[:, j] = (total.reshape(spec.repeats_sine, out_c) / spec.epoch_len).mean(axis=0)
    return SensitivityMap(freqs=freqs, activation=activation)


def conv_filter_response(checkpoint: ModelParams, spec: ProbeSpec) -> FilterResponseMap:
    """Repeat-averaged Welch PSD of the conv layer's pre-ReLU outputs under
    white-noise input; estimates each output channel's filtering profile."""
    rng = np.random.default_rng(spec.seed)
    freqs = None
    power = None
    for _ in range(spec.repeats_noise):
        noise = gen_white_noise(spec, rng)
        pre = conv1d_same(checkpoint, noise)
        f, p = welch_psd_batch(pre, spec.fs)
        if power is None:
            freqs, power = f, p
        else:
            power += p
    return FilterResponseMap(freqs=freqs, power=power / spec.repeats_noise)


def fir_power_response(kernel: np.ndarray, freqs: np.ndarray, fs: float) -> np.ndarray:
    """Analytic |DFT(kernel)|^2 evaluated at the given frequencies."""
    kernel = np.asarray(kernel, dtype=np.float64)
    k = np.arange(kernel.size)
    phase = -2.0j * np.pi * np.asarray(freqs)[:, None] * k[None, :] / fs
    h = (kernel[None, :] * np.exp(phase)).sum(axis=1)
    return np.abs(h) ** 2
