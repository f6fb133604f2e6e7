"""Frequency-domain probing of a trained model.

Two probes: a single-tone sinusoid sweep that maps the pooling layer's
sensitivity across frequencies, and white-noise system identification of the
convolutional layer's per-channel filtering profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ModelParams, conv1d_same, forward
from .preprocess import welch_psd_batch

# Conventional EEG band boundaries (Hz), for plot annotation only.
FREQ_BANDS = {
    "delta": (0.1, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 13.0),
    "beta": (13.0, 30.0),
    "gamma": (30.0, None),
}


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
        if self.frequencies is not None and np.max(self.frequencies) > self.fs / 2:
            raise ValueError(
                f"probe frequency above Nyquist ({self.fs / 2} Hz): "
                f"{np.max(self.frequencies)}"
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
        with Path(path).open("w") as fh:
            fh.write("pool_output," + ",".join(f"{f:g}" for f in self.freqs) + "\n")
            for i, row in enumerate(self.activation):
                fh.write(f"{i}," + ",".join(repr(v) for v in row.tolist()) + "\n")


@dataclass(frozen=True)
class FilterResponseMap:
    freqs: np.ndarray
    power: np.ndarray  # [out_channels, n_freqs], repeat-averaged one-sided PSD

    def to_csv_dir(self, out_dir: str | Path, prefix: str = "filter_response") -> list[Path]:
        """One (freq, power) CSV per convolutional output channel."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for ch, row in enumerate(self.power):
            p = out_dir / f"{prefix}_ch{ch:02d}.csv"
            with p.open("w") as fh:
                fh.write("freq,power\n")
                for f, v in zip(self.freqs.tolist(), row.tolist()):
                    fh.write(f"{f!r},{v!r}\n")
            paths.append(p)
        return paths


def gen_sinusoid_probe(f: float, spec: ProbeSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit-tone probe: channel n gets A*sin(2*pi*f*t + phi_n), phi_n ~ U[0, 2pi)."""
    if not 0 <= f <= spec.fs / 2:
        raise ValueError(f"probe frequency {f} outside [0, Nyquist={spec.fs / 2}]")
    t = np.arange(spec.epoch_len) / spec.fs
    phases = rng.uniform(0.0, 2.0 * np.pi, size=spec.channels)
    return spec.amplitude * np.sin(2.0 * np.pi * f * t[None, :] + phases[:, None])


def gen_white_noise(spec: ProbeSpec, rng: np.random.Generator) -> np.ndarray:
    """Independent standard Gaussian samples per channel and time step."""
    return rng.standard_normal((spec.channels, spec.epoch_len))


def pooling_sensitivity(checkpoint: ModelParams, spec: ProbeSpec) -> SensitivityMap:
    """Mean pooling-layer activation per probe frequency, dropout off."""
    rng = np.random.default_rng(spec.seed)
    freqs = spec.freq_grid
    out_c = checkpoint.conv_weight.shape[0]
    activation = np.zeros((out_c, freqs.size))
    for j, f in enumerate(freqs):
        acc = np.zeros(out_c)
        for _ in range(spec.repeats_sine):
            probe = gen_sinusoid_probe(float(f), spec, rng)
            acc += forward(checkpoint, probe, mode="eval").pooled
        activation[:, j] = acc / spec.repeats_sine
    return SensitivityMap(freqs=freqs, activation=activation)


def conv_filter_response(
    checkpoint: ModelParams,
    spec: ProbeSpec,
    window_len: int | None = None,
    overlap: float = 0.5,
) -> FilterResponseMap:
    """Repeat-averaged Welch PSD of the conv layer's pre-ReLU outputs under
    white-noise input; estimates each output channel's filtering profile."""
    rng = np.random.default_rng(spec.seed)
    freqs = None
    power = None
    for _ in range(spec.repeats_noise):
        noise = gen_white_noise(spec, rng)
        pre = conv1d_same(checkpoint, noise)
        f, p = welch_psd_batch(pre, spec.fs, window_len=window_len, overlap=overlap)
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
