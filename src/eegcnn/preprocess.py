"""High-pass filtering and Welch PSD estimation.

The high-pass is a Butterworth filter designed once as second-order sections
(SOS) and run forward and backward, so it has zero phase and works at every
order >= 1; no polynomial (b, a) form is ever built. The Welch PSD is plain
numpy, so only the filter (that is, only `eegcnn prepare`) loads scipy.signal.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial

import numpy as np

from .data import Manifest, ManifestEntry, SubjectRecording, load_subject_csv


def design_highpass(cutoff_hz: float, order: int, fs: float) -> np.ndarray:
    """Butterworth high-pass with the -3 dB point at cutoff_hz (single pass),
    as second-order sections: a [sections, 6] array of biquad coefficients
    taken straight from the filter's poles and zeros, stable at every order."""
    if order < 1:
        raise ValueError(f"filter order must be >= 1, got {order}")
    if not 0 < cutoff_hz < fs / 2:
        raise ValueError(f"cutoff must lie in (0, fs/2) = (0, {fs / 2}), got {cutoff_hz}")
    from scipy import signal as sps  # here: a 1.3-1.5 s, 49 MB import only prepare needs

    return sps.butter(order, cutoff_hz, btype="highpass", fs=fs, output="sos")


def apply_zero_phase(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Forward-backward filtering with reflective edge padding; zero net phase."""
    from scipy import signal as sps  # see design_highpass

    x = np.asarray(x, dtype=np.float64)
    # the pad is 3 * (order + 1) samples; an odd order ends in a first-order
    # section, the one whose a2 is 0
    padlen = 3 * (2 * len(sos) + 1 - np.count_nonzero(sos[:, 5] == 0))
    if x.shape[-1] <= padlen:
        raise ValueError(
            f"signal length {x.shape[-1]} too short for edge padding (needs > {padlen})"
        )
    return sps.sosfiltfilt(sos, x, padtype="even", padlen=padlen)


def _load_filtered_subject(
    sos: np.ndarray, manifest: Manifest, entry: ManifestEntry
) -> SubjectRecording:
    rec = load_subject_csv(entry.file, entry, manifest)
    return replace(rec, samples=apply_zero_phase(sos, rec.samples))


def load_filtered(manifest: Manifest, cutoff_hz: float, order: int) -> list[SubjectRecording]:
    """Every subject the manifest lists, loaded and zero-phase high-pass
    filtered channel by channel, in manifest order.

    The subjects are spread over one forked worker process per CPU of the
    affinity mask, at most one per subject; with one worker, or where fork is
    unavailable, they run in this process. Either way the same function runs
    on the same bytes, so the results are identical. The first subject in
    manifest order that fails raises its own error; a worker that dies raises
    BrokenProcessPool naming the first subject not yet loaded.
    """
    sos = design_highpass(cutoff_hz, order, manifest.fs)
    load = partial(_load_filtered_subject, sos, manifest)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(manifest.entries), cpus or 1)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(load, manifest.entries))
    # fork, not spawn: the workers inherit the imported modules and start in
    # milliseconds instead of importing numpy and scipy again
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        subjects = []
        try:
            # in manifest order; a call that raises cancels those not yet started
            for subject in pool.map(load, manifest.entries):
                subjects.append(subject)
        except BrokenProcessPool:
            raise BrokenProcessPool(
                f"a worker process died before {manifest.entries[len(subjects)].file} was loaded"
            ) from None
    return subjects


def welch_psd_batch(x: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed averaged periodogram over the last axis, one-sided
    density normalization; returns (freqs, power).

    The window is 1 s (round(fs) samples) with 50% overlap, so the frequency
    grid has 1 Hz spacing at integer sampling rates. The steps are those of
    scipy 1.17's ``scipy.signal.welch(x, fs, window="hann", nperseg=n,
    noverlap=n // 2, detrend=False)``, in the same order, so the result
    equals that call's bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    n = int(round(fs))
    if n < 1:
        raise ValueError(f"fs {fs} Hz gives a 1 s Welch window of 0 samples")
    if n > x.shape[-1]:
        raise ValueError(f"window_len {n} exceeds signal length {x.shape[-1]}")
    hop = n - n // 2
    # periodic Hann window; one sample is [1.0], as in scipy
    w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1]) if n > 1 else np.ones(1)
    win = w * (1 / np.sqrt(sum(w**2) / (1 / fs)))  # built-in sum: scipy's summation order
    segments = (x.shape[-1] - n // 2) // hop
    spec = np.empty(x.shape[:-1] + (n // 2 + 1, segments), dtype=complex)
    for p in range(segments):
        spec[..., :, p] = np.fft.rfft(x[..., p * hop : p * hop + n] * win)
    power = spec.real**2 + spec.imag**2
    power[..., 1 : -1 if n % 2 == 0 else None, :] *= 2  # one-sided: all but DC and Nyquist
    return np.fft.rfftfreq(n, 1 / fs), power.mean(axis=-1)
