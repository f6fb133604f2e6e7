"""High-pass filtering, the streamed ``prepare`` of a split directory, Welch
PSD estimation, and the ordered fork pool.

The high-pass is a Butterworth filter designed once as second-order sections
(SOS) and run forward and backward, so it has zero phase and works at every
order from 1 to MAX_FLOATS // 2; no polynomial (b, a) form is ever built. The Welch PSD is plain
numpy, so only the filter (that is, only `eegcnn prepare`) loads scipy.signal: an
import of about 1 s that raises a fresh interpreter's peak RSS from 27 to 103 MB.
``prepare_split`` writes a split directory with one filtered subject per
worker process in memory, never the cohort.
``ForkPool`` is the one pool of forked worker processes, as wide as
``pool_processes`` says: ``train`` keeps one for its mini-batches, ``fork_map``
maps once on a fresh one (``prepare_split``'s subjects, the tone probe's arc
sums, a sweep's points). ``one_blas_thread`` runs a block on one BLAS thread.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import shutil
import traceback
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from multiprocessing.connection import Connection, wait
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import (PARTITIONS, SPLIT_FILES, SPLIT_INDEX, ConfigError, Manifest, ManifestEntry,
                   SubjectRecording, TrainingDivergedError, assign_partitions, check_seed,
                   epoch_length, load_subject_csv, no_epochs_error, staged_output,
                   write_index, write_stack_header)
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
    from scipy import signal as sps  # here: a ~1 s, +76 MB peak RSS import only prepare needs

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


def _stage_subject(sos: np.ndarray, manifest: Manifest, epoch_len: int, staging: Path,
                   item: tuple[int, ManifestEntry]) -> int:
    """``prepare_split``'s work on one subject: the recording that
    ``_load_filtered_subject`` gives, its whole epochs written one after
    another in C order to ``staging/<manifest position>.subject``. Returns
    only the subject's sample count."""
    position, entry = item
    samples = _load_filtered_subject(sos, manifest, entry).samples
    with open(staging / f"{position}.subject", "wb") as fh:
        for start in range(0, samples.shape[1] - epoch_len + 1, epoch_len):
            fh.write(np.ascontiguousarray(samples[:, start:start + epoch_len], dtype="<f8").data)
    return samples.shape[1]


def prepare_split(manifest: Manifest, out_dir: str | Path, seed: int = 0, cutoff_hz: float = 1.0,
                  order: int = 4, epoch_seconds: float = 5.0
                  ) -> tuple[dict[str, int], dict[str, int]]:
    """Write the split directory that ``save_split(out_dir, split_dataset(
    subjects, seed, epoch_seconds), manifest.fs)`` writes, byte for byte,
    where ``subjects`` is every subject of the manifest, loaded and zero-phase
    high-pass filtered channel by channel, in manifest order; but without
    holding the cohort.

    The partitions come from the manifest's ids and ``seed`` alone, so a
    split that leaves a partition without subjects raises before any CSV is
    read. Each subject is loaded, filtered and written to its own file of the
    ``staged_output`` directory in a ``fork_map`` worker: the first subject in
    manifest order that fails raises its own error, and a worker that dies
    raises BrokenProcessPool naming the first subject not yet loaded. Pooled
    or not, the same function runs on the same bytes, so the files are
    identical. Each partition file is then the stack's header and its
    subjects' files appended in partition order, each deleted once appended,
    so the staging directory holds at most the cohort plus one subject.
    Returns the subjects and the epochs of each partition.
    """
    check_seed(seed)
    epoch_len = epoch_length(epoch_seconds, manifest.fs)
    ids = [entry.subject_id for entry in manifest.entries]
    groups = assign_partitions(ids, seed)
    sos = design_highpass(cutoff_hz, order, manifest.fs)
    with staged_output(out_dir, SPLIT_FILES, marker=SPLIT_INDEX) as staging:
        n_samples = fork_map(_stage_subject, list(enumerate(manifest.entries)),
                             (sos, manifest, epoch_len, staging),
                             lambda item: f"{item[1].file} was loaded")
        n_epochs = [n // epoch_len for n in n_samples]
        counts = {name: sum(n_epochs[i] for i in groups[name]) for name in PARTITIONS}
        empty = [name for name, count in counts.items() if not count]
        if empty:
            raise no_epochs_error(empty, epoch_seconds,
                                  [(i, n, manifest.fs) for i, n in zip(ids, n_samples)])
        write_index(staging / SPLIT_INDEX, seed, manifest.fs,
                    {ids[i]: name for name in PARTITIONS for i in groups[name]},
                    {name: [(ids[i], e, manifest.entries[i].label)
                            for i in groups[name] for e in range(n_epochs[i])]
                     for name in PARTITIONS})
        for name in PARTITIONS:
            with open(staging / f"{name}_data.npy", "wb") as stack:
                write_stack_header(stack, (counts[name], len(manifest.channel_names), epoch_len))
                for i in groups[name]:
                    subject = staging / f"{i}.subject"
                    with open(subject, "rb") as fh:
                        shutil.copyfileobj(fh, stack, 1 << 20)  # through a 1 MiB buffer
                    subject.unlink()
    return {name: len(groups[name]) for name in PARTITIONS}, counts


def usable_cpus() -> int:
    """The CPUs of this process's affinity mask (the CPU count where there is none)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_in_worker = False  # True in a ``ForkPool`` worker, whose own pools run in-process


def pool_processes(items: int, work: int = 0, min_work: int = 0, blas: bool = False) -> int:
    """How many processes a map of ``items`` items runs on: one per CPU of the
    affinity mask, at most one per item; but 1, this process alone, where that
    is below 2, where ``work`` is below the caller's break-even ``min_work``,
    where the platform cannot fork, in a pool's worker (whose pool already has
    one process per CPU) and, where the work calls BLAS, unless it runs on one
    BLAS thread (``one_blas_thread``): several threads per worker crowd the cores."""
    processes = min(items, usable_cpus())
    if (processes < 2 or work < min_work or _in_worker
            or "fork" not in multiprocessing.get_all_start_methods()
            or blas and blas_threads() != 1):
        return 1
    return processes


class WorkerTraceback(Exception):
    """The traceback, as text, of an error that a ``ForkPool`` worker raised;
    the error is re-raised in the calling process with this as its cause."""

    def __str__(self) -> str:
        return self.args[0]


def _serve(conn: Connection, inherited: list[Connection], shared: tuple) -> None:
    """A ``ForkPool`` worker: for each (fn, item) that arrives on ``conn``,
    send back (True, fn(*shared, item)) or (False, (the error it raised, its
    traceback)), until None or the end of the pipe."""
    global _in_worker
    _in_worker = True
    for other in inherited:  # this process's copies of the pipes of earlier workers
        other.close()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        fn, item = task
        try:
            reply = (True, fn(*shared, item))
        except Exception as exc:
            reply = (False, (exc, traceback.format_exc()))
        conn.send(reply)


class ForkPool:
    """``workers`` processes forked from this one that run calls for it until
    the pool closes, each over its own duplex pipe. They get ``shared``
    through fork, not pickled, so large arrays (and shared memory made
    before the fork) cost them nothing to receive; a ``map`` sends each
    worker only (fn, item) and gets back the result.

    fork, not spawn: the workers inherit the imported modules, numpy's error
    state and the BLAS thread count, and start in milliseconds instead of
    importing numpy and scipy again. A pool of 0 workers forks nothing and
    runs every call in this process. Use it as a context manager: closing
    stops the workers, and terminates them if a call is still out."""

    def __init__(self, workers: int, shared: tuple = ()):
        self._shared = shared
        self._conns: list[Connection] = []
        self._procs: list[multiprocessing.Process] = []
        self._idle = True  # no call is out
        # no fork context where none is needed: some platforms have none
        context = multiprocessing.get_context("fork") if workers else None
        try:
            for _ in range(workers):
                ours, theirs = context.Pipe()
                proc = context.Process(target=_serve, args=(theirs, list(self._conns), shared))
                proc.start()
                theirs.close()  # so that a worker's death ends its pipe
                self._conns.append(ours)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> ForkPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for conn, proc in zip(self._conns, self._procs):
            if self._idle:
                try:
                    conn.send(None)
                except OSError:  # a worker that died
                    pass
            else:
                proc.terminate()
        for conn, proc in zip(self._conns, self._procs):
            proc.join()
            proc.close()
            conn.close()
        self._conns, self._procs = [], []

    def map(self, fn: Callable, items: Sequence, unfinished: Callable[[object], str],
            here: bool = False) -> list:
        """``[fn(*shared, item) for item in items]``, in input order. Each
        worker takes the next item whenever it is idle; with ``here``, this
        process computes ``items[0]`` itself while they work.

        The first item in input order whose call raises raises its own error,
        and no item is handed out after a call raised. A worker that dies
        raises BrokenProcessPool, "a worker process died before
        <unfinished(item)>", for the first item in input order without a
        result.
        """
        if not self._conns:
            return [fn(*self._shared, item) for item in items]
        results, errors = {}, {}
        todo = iter(range(int(here), len(items)))
        busy: dict[Connection, int] = {}

        def hand_out(conn: Connection) -> None:
            i = None if errors else next(todo, None)
            if i is not None:
                busy[conn] = i
                conn.send((fn, items[i]))

        self._idle = False
        try:
            for conn in self._conns:
                hand_out(conn)
            if here and items:
                try:
                    results[0] = fn(*self._shared, items[0])
                except Exception as exc:
                    errors[0] = exc
            while busy:
                for conn in wait(list(busy)):
                    ok, value = conn.recv()
                    i = busy.pop(conn)
                    if ok:
                        results[i] = value
                    else:
                        errors[i], text = value
                        errors[i].__cause__ = WorkerTraceback(text)
                    hand_out(conn)
            self._idle = True
        except (EOFError, OSError):  # a worker died: its pipe ended, or a send to it failed
            pass
        for i, item in enumerate(items):
            if i in errors:
                raise errors[i]
            if i not in results:
                raise BrokenProcessPool(f"a worker process died before {unfinished(item)}")
        return [results[i] for i in range(len(items))]


def fork_map(fn: Callable, items: Sequence, shared: tuple, unfinished: Callable[[object], str],
             work: int = 0, min_work: int = 0, blas: bool = False) -> list:
    """``[fn(*shared, item) for item in items]``, in input order, with
    ``ForkPool``'s error rules, on the processes ``pool_processes`` gives."""
    processes = pool_processes(len(items), work, min_work, blas)
    with ForkPool(processes if processes > 1 else 0, shared) as pool:
        return pool.map(fn, items, unfinished)


@cache
def _openblas() -> tuple[Callable, Callable] | None:
    """The thread-count getter and setter of the OpenBLAS that numpy loaded,
    through ctypes, or None where there is none that exports a known name
    (numpy on MKL, Accelerate or a system BLAS). Looked up on first use, so
    importing eegcnn costs nothing."""
    here = Path(np.__file__).parent
    # where numpy's wheels keep their OpenBLAS: numpy.libs (Linux, Windows), .dylibs (macOS)
    found = [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]
    for path in sorted(found):
        try:  # RTLD_NOLOAD: only a library already loaded, never a second copy
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def blas_threads() -> int | None:
    """How many threads numpy's OpenBLAS runs now; None where ``_openblas`` finds none."""
    found = _openblas()
    return None if found is None else found[0]()


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block on one BLAS thread, then give the caller back its own
    count, also when the block raises. Where there is no known OpenBLAS, it
    sets nothing.

    Use it in the parent, before any fork: forked workers inherit the count.
    Setting the count in a forked child restarts OpenBLAS's thread pool
    there, whose spinning threads then slow the work, so a count that is
    already 1 (a ``train`` inside a sweep's worker) is left untouched."""
    caller = blas_threads()
    if caller in (None, 1):
        yield
        return
    put = _openblas()[1]
    put(1)
    try:
        yield
    finally:
        put(caller)


def welch_segments(
    fs: float, epoch_len: int
) -> tuple[int, np.ndarray, int, int, np.ndarray, np.ndarray]:
    """The 1 s, 50%-overlap segments of an ``epoch_len``-sample Welch PSD: their
    length n = round(fs), periodic Hann window scaled for a one-sided density,
    hop and count, then the frequency of each one-sided bin and its weight (1
    for DC and an even n's Nyquist bin, 2 for the others, which fold in their
    negative frequencies). An n of 0, or one longer than ``epoch_len``, raises
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
    bins = np.arange(n // 2 + 1)
    weight = np.where((bins == 0) | (2 * bins == n), 1.0, 2.0)
    return (n, w * (1 / np.sqrt(sum(w**2) / (1 / fs))), hop, (epoch_len - n // 2) // hop,
            np.fft.rfftfreq(n, 1 / fs), weight)


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
    n, win, hop, _, freqs, weight = welch_segments(fs, x.shape[-1])
    spec = np.fft.rfft(sliding_window_view(x, n, axis=-1)[..., ::hop, :] * win)
    power = (spec.real**2 + spec.imag**2) * weight  # [..., segments, n // 2 + 1]
    # a mean along contiguous segments sums in scipy's order; mean(axis=-2) does not
    return freqs, np.ascontiguousarray(power.swapaxes(-1, -2)).mean(-1)
