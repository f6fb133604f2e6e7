"""High-pass filtering and Welch PSD estimation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import signal as sps

from .data import Manifest, SubjectRecording, load_subject_csv


@dataclass(frozen=True)
class FilterCoeffs:
    b: np.ndarray
    a: np.ndarray
    cutoff_hz: float
    order: int
    fs: float

    def __post_init__(self):
        if abs(self.a[0] - 1.0) > 1e-12:
            raise ValueError("feedback coefficients must be normalized so a[0] = 1")
        poles = np.roots(self.a)
        if poles.size and np.max(np.abs(poles)) >= 1.0:
            raise ValueError("unstable filter: pole on or outside the unit circle")


def design_highpass(cutoff_hz: float, order: int, fs: float) -> FilterCoeffs:
    """Butterworth high-pass with the -3 dB point at cutoff_hz (single pass)."""
    if order < 1:
        raise ValueError(f"filter order must be >= 1, got {order}")
    if not 0 < cutoff_hz < fs / 2:
        raise ValueError(f"cutoff must lie in (0, fs/2) = (0, {fs / 2}), got {cutoff_hz}")
    b, a = sps.butter(order, cutoff_hz, btype="highpass", fs=fs)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64) / a[0]
    a = a / a[0]
    return FilterCoeffs(b=b, a=a, cutoff_hz=cutoff_hz, order=order, fs=fs)


def apply_zero_phase(coeffs: FilterCoeffs, x: np.ndarray) -> np.ndarray:
    """Forward-backward filtering with reflective edge padding; zero net phase."""
    x = np.asarray(x, dtype=np.float64)
    padlen = 3 * max(len(coeffs.a), len(coeffs.b))
    if x.shape[-1] <= padlen:
        raise ValueError(
            f"signal length {x.shape[-1]} too short for edge padding (needs > {padlen})"
        )
    # second-order sections keep roundoff down with poles near the unit circle
    sos = sps.tf2sos(coeffs.b, coeffs.a)
    return sps.sosfiltfilt(sos, x, padtype="even", padlen=padlen)


def load_filtered(manifest: Manifest, cutoff_hz: float, order: int) -> list[SubjectRecording]:
    """Every subject the manifest lists, loaded and zero-phase high-pass
    filtered channel by channel."""
    coeffs = design_highpass(cutoff_hz, order, manifest.fs)
    subjects = []
    for entry in manifest.entries:
        rec = load_subject_csv(entry.file, entry, manifest)
        subjects.append(replace(rec, samples=apply_zero_phase(coeffs, rec.samples)))
    return subjects


def welch_psd_batch(x: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed averaged periodogram over the last axis, one-sided
    density normalization; returns (freqs, power).

    The window is 1 s (round(fs) samples) with 50% overlap, so the frequency
    grid has 1 Hz spacing at integer sampling rates.
    """
    x = np.asarray(x, dtype=np.float64)
    window_len = int(round(fs))
    if window_len < 1:
        raise ValueError(f"fs {fs} Hz gives a 1 s Welch window of 0 samples")
    if window_len > x.shape[-1]:
        raise ValueError(f"window_len {window_len} exceeds signal length {x.shape[-1]}")
    return sps.welch(
        x,
        fs=fs,
        window="hann",
        nperseg=window_len,
        noverlap=window_len // 2,
        detrend=False,
        scaling="density",
        axis=-1,
    )
