import importlib.machinery
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from eegcnn.data import (ConfigError, CsvFormatError, Manifest, ManifestEntry, save_split,
                         split_dataset, write_subject_csv)
from eegcnn.model import MAX_FLOATS
import eegcnn.iir
import eegcnn.preprocess
from eegcnn.preprocess import (WorkerTraceback, apply_zero_phase, blas_threads, design_highpass,
                               fork_map, one_blas_thread, pool_processes, prepare_split,
                               welch_psd_batch, welch_segments)
from eegcnn.synth import synthetic_dataset

from conftest import (gain_db, make_recording, needs_fork, needs_openblas,
                      reference_load_filtered)

FS = 500.0


class TestDesignHighpass:
    def test_minus_3db_at_cutoff(self):
        sos = design_highpass(1.0, 4, FS)
        assert gain_db(sos, 1.0, FS) == pytest.approx(-3.0103, abs=0.1)

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ValueError):
            design_highpass(250.0, 4, FS)

    def test_non_positive_order_rejected(self):
        with pytest.raises(ValueError):
            design_highpass(1.0, 0, FS)

    def test_whole_number_float_order_is_that_order(self):
        # scipy's butter built the order-4 filter from 4.0
        assert design_highpass(1.0, 4.0, FS).tobytes() == design_highpass(1.0, 4, FS).tobytes()

    @pytest.mark.parametrize("order", [2.5, 0.5, float("nan"), float("inf")])
    def test_fractional_order_rejected(self, order):
        # scipy's butter rejected it unnamed; the numpy design would build a
        # filter from the poles of no Butterworth order
        with pytest.raises(ConfigError, match=f"^filter_order must be an integer, got {order}$"):
            design_highpass(1.0, order, FS)

    # at 7.9e-8 Hz and fs 100 Hz scipy divides 0 by 0 before the solve
    # fails; a numpy warning fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cutoff", [1e-300, 1e-10, 7.943282347242822e-8])
    def test_cutoff_too_low_for_initial_state_rejected(self, cutoff):
        with pytest.raises(ConfigError, match=f"cutoff_hz {cutoff} is too low for filter_order 4"):
            design_highpass(cutoff, 4, 100.0)

    # scipy overflowed 2**63 - 1 and 2**63 - 3 into the identity section
    # [[1, 0, 0, 1, 0, 0]], so the split was not filtered at all; at 2**62
    # numpy raised its unnamed "array is too big"
    @pytest.mark.parametrize("order", [2**63 - 1, 2**63 - 3, 2**62, MAX_FLOATS // 2 + 1])
    def test_order_beyond_one_array_rejected(self, order):
        with pytest.raises(ConfigError, match=f"^filter_order {order} is too high: its {order} "
                                              "complex poles hold more float64 values"):
            design_highpass(1.0, order, FS)

    def test_cutoff_that_scipy_normalizes_to_zero_rejected(self):
        # 2 * cutoff / fs underflows to 0, which scipy rejects with a bare ValueError
        with pytest.raises(ConfigError, match=r"^cutoff_hz 5e-324 is too low for filter_order "
                                              r"4 at fs 100.0 Hz: cutoff_hz / \(fs / 2\) "
                                              "rounds to 0$"):
            design_highpass(5e-324, 4, 100.0)

    def test_dc_killed(self):
        sos = design_highpass(1.0, 4, FS)
        x = np.ones(10000)
        y = sps.sosfilt(sos, x)
        assert abs(y[-1]) < 1e-6

    def test_stability_invariant(self):
        # impulse response tail must have decayed to numerical zero by 10 s
        sos = design_highpass(1.0, 4, FS)
        impulse = np.zeros(int(12 * FS))
        impulse[0] = 1.0
        h = sps.sosfilt(sos, impulse)
        assert np.all(np.abs(h[int(10 * FS):]) < 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(fs=st.floats(1.0, 10_000.0), fraction=st.floats(1e-4, 0.49),
           order=st.integers(1, 20))
    @example(fs=FS, fraction=1.0 / FS, order=7)
    @example(fs=FS, fraction=0.5 / FS, order=6)
    @example(fs=FS, fraction=1.0 / FS, order=8)
    def test_gain_matches_analytic_butterworth(self, fs, fraction, order):
        # oracle: the bilinear-transform Butterworth high-pass has
        # |H(w)| = 1 / sqrt(1 + (tan(wc / 2) / tan(w / 2))^(2n))
        cutoff = fraction * fs
        sos = design_highpass(cutoff, order, fs)
        # from cutoff / 8 up: much closer to DC, sosfreqz's own sum over the
        # zeros at z = 1 loses digits (relative error about eps / w^2)
        freqs = np.geomspace(cutoff / 8, 0.499 * fs, 200)
        _, h = sps.sosfreqz(sos, worN=freqs, fs=fs)
        ratio = np.tan(np.pi * cutoff / fs) / np.tan(np.pi * freqs / fs)
        with np.errstate(over="ignore"):
            want = 1.0 / np.sqrt(1.0 + ratio ** (2 * order))
        got = np.abs(h)
        seen = (got > 1e-6) | (want > 1e-6)
        np.testing.assert_allclose(got[seen], want[seen], rtol=1e-6)
        # each section's poles on their own: a (b, a) form of the whole filter
        # is what loses the accuracy at high orders and low cutoffs
        poles = np.concatenate([np.roots(section[3:]) for section in sos])
        assert np.all(np.abs(poles) < 1.0)


class TestApplyZeroPhase:
    def setup_method(self):
        self.sos = design_highpass(1.0, 4, FS)

    def test_constant_rejected(self):
        c = 7.5
        out = apply_zero_phase(self.sos, np.full(5000, c))
        interior = out[500:-500]
        assert np.max(np.abs(interior)) < 1e-6 * abs(c)

    def test_passband_sinusoid_amplitude_and_phase(self):
        # oracle: analytic single-pass |H(10 Hz)| for a 4th-order 1 Hz Butterworth
        # high-pass is 1/sqrt(1 + (1/10)^8); squared for forward-backward
        t = np.arange(10000) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = apply_zero_phase(self.sos, x)
        interior = slice(2500, -2500)  # outside the 1 Hz filter's edge transient
        amp = np.max(np.abs(y[interior]))
        expected = (1.0 / np.sqrt(1.0 + (1.0 / 10.0) ** 8)) ** 2
        assert amp == pytest.approx(expected, rel=0.01)
        assert amp == pytest.approx(1.0, rel=0.01)
        # zero-phase property: cross-correlation peak at zero lag
        lags = range(-20, 21)
        corr = [np.dot(x[4000:6000], y[4000 + l : 6000 + l]) for l in lags]
        assert lags[int(np.argmax(corr))] == 0

    def test_linearity(self, rng):
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        lhs = apply_zero_phase(self.sos, 2.5 * x - 1.25 * y)
        rhs = 2.5 * apply_zero_phase(self.sos, x) - 1.25 * apply_zero_phase(self.sos, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError, match="^signal length 10 too short for the edge "
                                              r"padding of filter_order 4 \(needs > 15\)$"):
            apply_zero_phase(self.sos, np.ones(10))

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 7])
    def test_edge_pad_is_three_times_order_plus_one(self, order):
        sos = design_highpass(1.0, order, FS)
        pad = 3 * (order + 1)
        with pytest.raises(ValueError, match=f"needs > {pad}"):
            apply_zero_phase(sos, np.ones(pad))
        assert apply_zero_phase(sos, np.ones(pad + 1)).shape == (pad + 1,)

    def test_length_preserved(self, rng):
        x = rng.standard_normal(777)
        assert apply_zero_phase(self.sos, x).shape == x.shape


@settings(max_examples=300, deadline=None)
@given(order=st.integers(1, 30), fraction=st.floats(1e-4, 0.49), fs=st.floats(1.0, 10_000.0),
       layout=st.sampled_from(["1-D", "C", "F"]), extra=st.integers(0, 200),
       seed=st.integers(0, 2**32 - 1))
@example(order=4, fraction=1.0 / FS, fs=FS, layout="C", extra=0, seed=0)  # prepare's default
@example(order=1, fraction=0.25, fs=FS, layout="1-D", extra=0, seed=0)  # a real pole at 0
@example(order=29, fraction=1e-4, fs=1.0, layout="F", extra=5, seed=1)
def test_filter_matches_scipy(order, fraction, fs, layout, extra, seed):
    # oracle: scipy.signal's own design, initial state and zero-phase pass,
    # which the numpy port and the kernel loaded on its own replace. Bitwise
    # equal with scipy 1.17; a tolerance, since other versions may round the
    # design differently.
    def same(got, want, rtol):
        if scipy.__version__.startswith("1.17."):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())

    cutoff = fraction * fs
    sos = eegcnn.iir.butter_highpass(order, cutoff, fs)
    same(sos, sps.butter(order, cutoff, btype="highpass", fs=fs, output="sos"), 1e-12)
    try:
        with np.errstate(all="ignore"):
            want_zi = sps.sosfilt_zi(sos)
    except np.linalg.LinAlgError:
        with pytest.raises(ConfigError, match="solving for its initial state fails"):
            design_highpass(cutoff, order, fs)
        return
    assert design_highpass(cutoff, order, fs).tobytes() == sos.tobytes()
    same(eegcnn.iir.sosfilt_zi(sos), want_zi, 1e-10)
    padlen = 3 * (order + 1)
    x = np.random.default_rng(seed).standard_normal((3, padlen + 1 + extra))
    x = {"1-D": x[0], "C": x, "F": np.asfortranarray(x)}[layout]
    same(apply_zero_phase(sos, x), sps.sosfiltfilt(sos, x, padtype="even", padlen=padlen), 1e-9)


class TestKernel:
    """``eegcnn.iir.sosfilt_kernel``: scipy's compiled ``_sosfilt``, however it is found."""

    @pytest.fixture(autouse=True)
    def fresh_kernel(self):
        eegcnn.iir.sosfilt_kernel.cache_clear()
        yield
        eegcnn.iir.sosfilt_kernel.cache_clear()

    def test_reuses_the_module_scipy_signal_loaded(self):
        from scipy.signal._sosfilt import _sosfilt
        assert eegcnn.iir.sosfilt_kernel() is _sosfilt

    def test_missing_file_is_named(self, monkeypatch):
        find_spec = importlib.machinery.PathFinder.find_spec
        monkeypatch.delitem(sys.modules, "scipy.signal._sosfilt")
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(
            lambda cls, name, *args: None if name == "scipy.signal._sosfilt"
            else find_spec(name, *args)))
        with pytest.raises(ModuleNotFoundError, match="scipy.signal._sosfilt is not in"):
            eegcnn.iir.sosfilt_kernel()

    def test_loaded_from_its_file_without_scipy_signal(self):
        # in a fresh interpreter, since this one imported scipy.signal in conftest
        code = ("import sys\n"
                "from eegcnn.iir import sosfilt_kernel\n"
                "kernel = sosfilt_kernel()\n"
                "print('scipy.signal' in sys.modules)\n"
                "from scipy.signal._signaltools import _sosfilt\n"
                "print(_sosfilt is kernel)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "True"]


class TestWelchPsd:
    def test_sinusoid_peak_at_bin(self):
        t = np.arange(2500) / FS
        x = np.sin(2 * np.pi * 20.0 * t)
        freqs, power = welch_psd_batch(x, FS)
        assert freqs[np.argmax(power)] == pytest.approx(20.0)

    def test_white_noise_flat(self, rng):
        # Monte-Carlo flatness: 300 realizations averaged
        x = rng.standard_normal((300, 2500))
        freqs, power = welch_psd_batch(x, FS)
        mean_power = power.mean(axis=0)
        band = (freqs >= 1.0) & (freqs <= 240.0)
        ratio = mean_power[band].max() / mean_power[band].min()
        assert ratio < 1.5

    def test_zero_signal(self):
        _, power = welch_psd_batch(np.zeros(2500), FS)
        assert np.all(power == 0.0)

    def test_parseval_sanity(self, rng):
        x = rng.standard_normal(50000)
        freqs, power = welch_psd_batch(x, FS)
        df = freqs[1] - freqs[0]
        total = np.sum(power) * df
        assert total == pytest.approx(np.var(x), rel=0.1)

    def test_phase_shift_invariance(self):
        t = np.arange(2500) / FS
        f = 20.0  # whole-bin frequency for a 1 s window
        _, a = welch_psd_batch(np.sin(2 * np.pi * f * t), FS)
        _, b = welch_psd_batch(np.sin(2 * np.pi * f * t + 1.234), FS)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_window_longer_than_signal_rejected(self):
        with pytest.raises(ValueError, match="window"):
            welch_psd_batch(np.zeros(int(FS) - 1), FS)

    @settings(max_examples=300, deadline=None)
    @given(fs=st.integers(1, 600).map(float) | st.floats(0.51, 600.0),
           lead=st.lists(st.integers(1, 3), max_size=2), stretch=st.floats(0.0, 1.0),
           fortran=st.booleans(), reverse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(fs=1.0, lead=[2], stretch=1.0, fortran=False, reverse=False, seed=0)  # n = 1
    @example(fs=FS, lead=[3, 2], stretch=0.3, fortran=True, reverse=False, seed=0)
    @example(fs=FS, lead=[3, 2], stretch=0.3, fortran=True, reverse=True, seed=0)
    def test_matches_scipy_welch(self, fs, lead, stretch, fortran, reverse, seed):
        # oracle: scipy's own Welch at the same settings. Bitwise equal with
        # scipy 1.17; a tolerance, since other versions may reorder the sums.
        n = round(fs)
        length = n + int(stretch * (5 * n + 7))  # n to 6n + 7 samples
        x = np.random.default_rng(seed).standard_normal((*lead, length))
        if fortran:
            x = np.asfortranarray(x)
        if reverse:  # negative strides on every axis
            x = x[(slice(None, None, -1),) * x.ndim]
        want_freqs, want = sps.welch(x, fs, window="hann", nperseg=n, noverlap=n // 2,
                                     detrend=False, scaling="density")
        freqs, power = welch_psd_batch(x, fs)
        if scipy.__version__.startswith("1.17."):
            assert freqs.tobytes() == want_freqs.tobytes()
            assert power.shape == want.shape and power.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(freqs, want_freqs, rtol=1e-14, atol=0)
            np.testing.assert_allclose(power, want, rtol=1e-14, atol=0)

    # DC and an even n's Nyquist bin have no negative twin, so they are not doubled
    @pytest.mark.parametrize("fs, weight", [
        (1.0, [1]), (2.0, [1, 1]), (3.0, [1, 2]), (4.0, [1, 2, 1]), (5.0, [1, 2, 2]),
    ])
    def test_one_sided_bin_weights(self, fs, weight):
        *_, freqs, got = welch_segments(fs, 10)
        assert got.tolist() == weight
        assert freqs.tobytes() == np.fft.rfftfreq(round(fs), 1 / fs).tobytes()

    @pytest.mark.parametrize("fs", [0.4, 0.5])  # round(0.5) is 0
    def test_zero_sample_window_rejected(self, fs):
        with pytest.raises(ValueError, match=f"fs {fs} Hz gives a 1 s Welch window of 0"):
            welch_psd_batch(np.zeros(10), fs)


def write_cohort(root, n_subjects, channels=3, n_samples=3000):
    """A manifest of ``n_subjects`` CSVs of noise written under ``root``."""
    names = [f"ch{i}" for i in range(channels)]
    entries = []
    for i in range(n_subjects):
        rec = make_recording(f"S{i:03d}", label=i % 2, fs=FS, channels=channels,
                             n_samples=n_samples, seed=i)
        path = root / f"{rec.subject_id}.csv"
        write_subject_csv(path, rec, names)
        entries.append(ManifestEntry(rec.subject_id, str(path), rec.label))
    return Manifest(entries=entries, fs=FS, channel_names=names)


def write_manifest(root, recordings):
    """The manifest of ``recordings``, each written as a CSV under ``root``."""
    names = [f"ch{i}" for i in range(recordings[0].channels)]
    entries = []
    for rec in recordings:
        path = root / f"{rec.subject_id}.csv"
        write_subject_csv(path, rec, names)
        entries.append(ManifestEntry(rec.subject_id, str(path), rec.label))
    return Manifest(entries=entries, fs=recordings[0].fs, channel_names=names)


def split_files(split_dir):
    return {p.name: p.read_bytes() for p in sorted(split_dir.iterdir())}


def prepared_or_error(manifest, out, seed, epoch_seconds, streamed):
    """The files of the split directory that ``prepare_split`` (``streamed``)
    or ``save_split`` of ``split_dataset`` of the serial load writes, or the
    text of the ConfigError that stops it."""
    try:
        if streamed:
            prepare_split(manifest, out, seed, 1.0, 4, epoch_seconds)
        else:
            subjects = reference_load_filtered(manifest, 1.0, 4)
            save_split(out, split_dataset(subjects, seed, epoch_seconds), manifest.fs)
    except ConfigError as exc:
        assert not out.exists()
        return str(exc)
    return split_files(out)


def assert_streamed_is_saved(root, manifest, seed=0, epoch_seconds=5.0):
    want = prepared_or_error(manifest, root / "saved", seed, epoch_seconds, streamed=False)
    got = prepared_or_error(manifest, root / "streamed", seed, epoch_seconds, streamed=True)
    assert got == want
    assert [p.name for p in root.iterdir() if p.name.startswith(".")] == []  # no staging left
    return got


class TestPrepareSplit:
    """``prepare_split`` writes the bytes of ``save_split(split_dataset(...))``
    of the serially loaded cohort, from one subject per worker."""

    # unequal lengths, each one to three 5 s epochs and a few samples
    UNEQUAL = [make_recording(f"S{i:03d}", label=i % 2, fs=FS, n_samples=2500 * (1 + i % 3) + i,
                              seed=i) for i in range(7)]

    @needs_fork
    @settings(max_examples=20, deadline=None)
    @given(lengths=st.lists(st.integers(20, 450), min_size=3, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_any_cohort_gives_the_saved_split(self, lengths, seed):
        """3-12 subjects of unequal lengths, not whole numbers of the 100-sample
        epochs, some shorter than one, on two CPUs; a split that leaves a
        partition without subjects or epochs raises the same error."""
        recordings = [make_recording(f"S{i:03d}", label=i % 2, fs=100.0, channels=2,
                                     n_samples=n, seed=i) for i, n in enumerate(lengths)]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "csv").mkdir()
            manifest = write_manifest(root / "csv", recordings)
            assert_streamed_is_saved(root, manifest, seed, epoch_seconds=1.0)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_cpu(self, tmp_path):
        """Pinned to one CPU, the subjects load in this process."""
        (tmp_path / "csv").mkdir()
        manifest = write_manifest(tmp_path / "csv", self.UNEQUAL)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            assert eegcnn.preprocess.usable_cpus() == 1
            assert_streamed_is_saved(tmp_path, manifest, seed=4)
        finally:
            os.sched_setaffinity(0, mask)

    @pytest.mark.parametrize("n_cpus", [1, pytest.param(2, marks=needs_fork)])
    def test_pooled_or_in_process(self, tmp_path, cpus, n_cpus):
        """Seven subjects, more than the workers: two CPUs fork a pool of
        two, one loads them in this process."""
        pools = cpus(n_cpus)
        (tmp_path / "csv").mkdir()
        manifest = write_manifest(tmp_path / "csv", self.UNEQUAL)
        assert_streamed_is_saved(tmp_path, manifest, seed=4)
        assert pools == ([2] if n_cpus == 2 else [])

    @pytest.mark.parametrize("shape", ["paper", "accept", "ci-16-channel"])
    def test_bench_and_ci_shapes(self, tmp_path, shape):
        """The channels, rate and epochs of the benchmark's paper (59 channels)
        and accept (8 channels) cohorts at 500 Hz, with fewer subjects, and the
        16-channel cohort of the CI step "Default output bytes do not depend on
        the CPU count"."""
        channels, fs, n_subjects, n_epochs, seed = {
            "paper": (59, 500.0, 5, 2, 0), "accept": (8, 500.0, 6, 3, 0),
            "ci-16-channel": (16, 100.0, 6, 2, 3)}[shape]
        (tmp_path / "csv").mkdir()
        manifest = write_manifest(tmp_path / "csv", synthetic_dataset(
            n_subjects=n_subjects, channels=channels, fs=fs, n_epochs=n_epochs, seed=seed))
        assert set(assert_streamed_is_saved(tmp_path, manifest)) == {
            "split.json", "train_data.npy", "validation_data.npy", "test_data.npy"}

    def test_empty_partition_error_before_any_csv_is_read(self, tmp_path, monkeypatch):
        """The partitions come from the manifest's ids, so three subjects are
        rejected with split_dataset's text before a CSV is read (they used to
        be rejected after every CSV was loaded and filtered)."""
        manifest = write_cohort(tmp_path, 3)
        with pytest.raises(ConfigError) as want:
            split_dataset(reference_load_filtered(manifest, 1.0, 4))

        def no_read(*args):
            raise AssertionError("prepare_split read a CSV")

        monkeypatch.setattr(eegcnn.preprocess, "load_subject_csv", no_read)
        with pytest.raises(ConfigError) as got:
            prepare_split(manifest, tmp_path / "out")
        assert str(got.value) == str(want.value) == (
            "split of 3 subjects leaves a partition empty: train/validation/test = 2/1/0 "
            "subjects")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_cpus", [1, pytest.param(2, marks=needs_fork)])
    def test_first_bad_subject_in_manifest_order_raises(self, tmp_path, cpus, n_cpus):
        """Two bad CSVs, S001 failing late and S003 at once: the error is
        S001's, as the serial load raises it, and nothing is left beside --out."""
        cpus(n_cpus)
        (tmp_path / "csv").mkdir()
        manifest = write_cohort(tmp_path / "csv", 5, n_samples=20000)
        with open(manifest.entries[1].file, "a") as fh:
            fh.write("1.0,x,2.0\n")
        open(manifest.entries[3].file, "w").close()
        with pytest.raises(CsvFormatError) as want:
            reference_load_filtered(manifest, 1.0, 4)
        with pytest.raises(CsvFormatError) as got:
            prepare_split(manifest, tmp_path / "out")
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{manifest.entries[1].file}: non-numeric cell 'x'")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["csv"]
        assert multiprocessing.active_children() == []


def _pid(item):
    return os.getpid()


def _pids_of_nested_call(n, item):
    """This process's id, and the ids of the processes that ran the n calls
    of its own ``fork_map``."""
    return os.getpid(), fork_map(_pid, range(n), (), str)


# (CPUs, pool_processes arguments, eegcnn.preprocess or multiprocessing attributes set
# with monkeypatch, the count it must give)
_POLICY = {
    "one-per-cpu": (2, (5,), {}, 2),
    "one-per-item": (8, (3,), {}, 3),
    "one-cpu": (1, (5,), {}, 1),
    "one-item": (2, (1,), {}, 1),
    "work-below-min-work": (2, (5, 9, 10), {}, 1),
    "work-at-min-work": (2, (5, 10, 10), {}, 2),
    "inside-a-fork-map-worker": (2, (5,), {"_in_worker": True}, 1),
    "no-fork-start-method": (2, (5,), {"get_all_start_methods": lambda: ["spawn"]}, 1),
    "blas-on-one-thread": (2, (5, 0, 0, True), {"_openblas": lambda: (lambda: 1, None)}, 2),
    "blas-on-two-threads": (2, (5, 0, 0, True), {"_openblas": lambda: (lambda: 2, None)}, 1),
    "blas-not-openblas": (2, (5, 0, 0, True), {"_openblas": lambda: None}, 1),
    "blas-ignored-without-blas": (2, (5,), {"_openblas": lambda: (lambda: 2, None)}, 2),
}


class TestPoolProcesses:
    @pytest.mark.parametrize("case", _POLICY.values(), ids=_POLICY.keys())
    def test_policy(self, cpus, monkeypatch, case):
        n_cpus, args, patches, want = case
        cpus(n_cpus)
        for name, value in patches.items():
            owner = multiprocessing if name == "get_all_start_methods" else eegcnn.preprocess
            monkeypatch.setattr(owner, name, value)
        assert pool_processes(*args) == want

    def test_no_other_module_applies_the_rules(self):
        """The fork, CPU, nesting and BLAS rules live in ``pool_processes``
        alone: no other module of the package reads what they read."""
        rules = re.compile(r"usable_cpus\(|blas_threads\(|multiprocessing\.get_all_start_methods"
                           r"|\b_in_worker\b")
        package = Path(eegcnn.preprocess.__file__).parent
        found = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(package.glob("*.py")) if path.name != "preprocess.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if rules.search(line)]
        assert found == []


class TestForkMap:
    @needs_fork
    def test_call_inside_a_worker_runs_in_that_worker(self, cpus):
        """A worker's own ``fork_map`` starts no grandchild, which would put
        more processes than CPUs to work."""
        pools = cpus(2)
        results = fork_map(_pids_of_nested_call, [0, 1], (3,), str)
        assert pools == [2]
        for worker, inner in results:
            assert worker != os.getpid() and inner == [worker] * 3
        assert multiprocessing.active_children() == []


def _blas_threads_started(item):
    """How many threads this process gained in a one_blas_thread block that ran a GEMM."""
    before = len(os.listdir("/proc/self/task"))
    with one_blas_thread():
        np.ones((64, 64)) @ np.ones((64, 64))
    return len(os.listdir("/proc/self/task")) - before


def _fail_in_worker(item):
    if item == 1:
        raise ValueError(f"item {item}")
    return item


class TestForkPool:
    @needs_fork
    def test_error_in_a_worker_carries_its_traceback(self, cpus):
        """A bug in a worker shows the worker's frames, as the cause of the
        error re-raised here."""
        cpus(2)
        with pytest.raises(ValueError, match="^item 1$") as info:
            fork_map(_fail_in_worker, [0, 1], (), str)
        assert isinstance(info.value.__cause__, WorkerTraceback)
        assert "in _fail_in_worker" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []


class TestOneBlasThread:
    @needs_openblas
    def test_one_thread_inside_and_the_callers_count_after(self):
        before = blas_threads()
        with pytest.raises(RuntimeError, match="^inside$"):
            with one_blas_thread():
                assert blas_threads() == 1
                raise RuntimeError("inside")
        assert blas_threads() == before

    def test_count_of_one_is_left_alone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(eegcnn.preprocess, "_openblas", lambda: (lambda: 1, calls.append))
        with one_blas_thread():
            assert blas_threads() == 1
        assert calls == []

    @needs_fork
    @needs_openblas
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_worker_of_a_one_thread_parent_starts_no_blas_thread(self, cpus):
        """A ``train`` inside a sweep's worker runs in one_blas_thread: set
        there, the count would restart OpenBLAS's thread pool in the child."""
        cpus(2)
        with one_blas_thread():
            assert fork_map(_blas_threads_started, [0, 1], (), str) == [0, 0]
        assert multiprocessing.active_children() == []

    def test_without_openblas_sets_nothing(self, monkeypatch):
        monkeypatch.setattr(eegcnn.preprocess, "_openblas", lambda: None)
        with one_blas_thread():
            assert blas_threads() is None
