"""High-pass filtering and Welch PSD estimation.

The high-pass is a Butterworth filter designed once as second-order sections
(SOS) and run forward and backward, so it has zero phase and works at every
order from 1 to MAX_FLOATS // 2; no polynomial (b, a) form is ever built. The Welch PSD is plain
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
from numpy.lib.stride_tricks import sliding_window_view

from .data import (ConfigError, Manifest, ManifestEntry, SubjectRecording,
                   TrainingDivergedError, load_subject_csv)
from .model import MAX_FLOATS


def design_highpass(cutoff_hz: float, order: int, fs: float) -> np.ndarray:
    """Butterworth high-pass with the -3 dB point at cutoff_hz (single pass),
    as second-order sections: a [sections, 6] array of biquad coefficients
    taken straight from the filter's poles and zeros, stable at every order.
    An order whose ``order`` complex poles one numpy array cannot hold, or a
    cutoff too low for ``sosfiltfilt``'s initial state, raises ConfigError."""
    if order < 1:
        raise ConfigError(f"filter_order must be >= 1, got {order}")
    if order > MAX_FLOATS // 2:  # scipy would fail unnamed, or overflow to a pass-all filter
        raise ConfigError(f"filter_order {order} is too high: its {order} complex poles hold "
                          f"more float64 values than one numpy array can ({MAX_FLOATS})")
    if not 0 < cutoff_hz < fs / 2:
        raise ConfigError(f"cutoff_hz must lie in (0, fs/2) = (0, {fs / 2}), got {cutoff_hz}")
    too_low = f"cutoff_hz {cutoff_hz} is too low for filter_order {order} at fs {fs} Hz"
    if 2 * cutoff_hz / fs == 0:  # scipy's normalized cutoff underflows
        raise ConfigError(f"{too_low}: cutoff_hz / (fs / 2) rounds to 0")
    from scipy import signal as sps  # here: a 1.3-1.5 s, 49 MB import only prepare needs

    sos = sps.butter(order, cutoff_hz, btype="highpass", fs=fs, output="sos")
    try:
        with np.errstate(all="ignore"):  # scipy divides 0 by 0 before the singular solve
            sps.sosfilt_zi(sos)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"{too_low}: solving for its initial state fails ({exc})") from None
    return sos


def apply_zero_phase(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Forward-backward filtering with reflective edge padding; zero net phase."""
    from scipy import signal as sps  # see design_highpass

    x = np.asarray(x, dtype=np.float64)
    # the pad is 3 * (order + 1) samples; an odd order ends in a first-order
    # section, the one whose a2 is 0
    order = 2 * len(sos) - np.count_nonzero(sos[:, 5] == 0)
    padlen = 3 * (order + 1)
    if x.shape[-1] <= padlen:
        raise ConfigError(f"signal length {x.shape[-1]} too short for the edge padding of "
                          f"filter_order {order} (needs > {padlen})")
    return sps.sosfiltfilt(sos, x, padtype="even", padlen=padlen)


def _load_filtered_subject(
    sos: np.ndarray, manifest: Manifest, entry: ManifestEntry
) -> SubjectRecording:
    """One subject's recording, high-pass filtered; an error names its file."""
    rec = load_subject_csv(entry.file, entry, manifest)
    try:
        samples = apply_zero_phase(sos, rec.samples)
    except ConfigError as exc:
        raise ConfigError(f"{entry.file}: {exc}") from None
    if not np.isfinite(samples).all():
        raise TrainingDivergedError(f"{entry.file}: the samples overflow the high-pass filter")
    return replace(rec, samples=samples)


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


def welch_segments(fs: float, epoch_len: int) -> tuple[int, np.ndarray, int, int]:
    """The 1 s, 50%-overlap segments of an ``epoch_len``-sample Welch PSD: their
    length n = round(fs), periodic Hann window scaled for a one-sided density,
    hop and count. An n of 0, or one longer than ``epoch_len``, raises
    ConfigError. ``welch_psd_batch`` and the probe's filter response use it."""
    n = int(round(fs))
    if n < 1:
        raise ConfigError(f"fs {fs} Hz gives a 1 s Welch window of 0 samples")
    if n > epoch_len:
        raise ConfigError(f"epoch_len {epoch_len} is shorter than the 1 s Welch window of "
                          f"{n:g} samples at fs {fs} Hz")
    # periodic Hann window ([1.0] at n = 1, as in scipy), scaled by a built-in sum: scipy's order
    w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1]) if n > 1 else np.ones(1)
    hop = n - n // 2
    return n, w * (1 / np.sqrt(sum(w**2) / (1 / fs))), hop, (epoch_len - n // 2) // hop


def welch_psd_batch(x: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed averaged periodogram over the last axis, one-sided
    density normalization; returns (freqs, power).

    The segments (``welch_segments``) are 1 s with 50% overlap, so the grid
    has 1 Hz spacing at integer sampling rates. The steps are those of
    scipy 1.17's ``scipy.signal.welch(x, fs, window="hann", nperseg=n,
    noverlap=n // 2, detrend=False)``, in the same order, so the result
    equals that call's bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    n, win, hop, _ = welch_segments(fs, x.shape[-1])
    spec = np.fft.rfft(sliding_window_view(x, n, axis=-1)[..., ::hop, :] * win)
    power = spec.real**2 + spec.imag**2  # [..., segments, n // 2 + 1]
    power[..., 1 : -1 if n % 2 == 0 else None] *= 2  # one-sided: all but DC and Nyquist
    # a mean along contiguous segments sums in scipy's order; mean(axis=-2) does not
    return np.fft.rfftfreq(n, 1 / fs), np.ascontiguousarray(power.swapaxes(-1, -2)).mean(-1)
